package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// serverProc is one cbirserver child process. The benchmark owns its whole
// life: every start is paired with a stop that kills and reaps it, so no
// server outlives a run, failed or not.
type serverProc struct {
	cmd     *exec.Cmd
	waitCh  chan error // receives cmd.Wait's result exactly once
	logFile *os.File
	BaseURL string
	// SetupSeconds is exec → first 200 from /api/status.
	SetupSeconds float64
}

// buildServer compiles cmd/cbirserver into dir and returns the binary path.
// It runs from the module root, which is where `go run ./bench` runs too.
func buildServer(ctx context.Context, moduleRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "cbirserver")
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs, "./cmd/cbirserver")
	cmd.Dir = moduleRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cbirserver: %v\n%s", err, out)
	}
	return abs, nil
}

// freeLoopbackAddr asks the kernel for an unused loopback port.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs the server and waits until /api/status answers 200.
// Output goes to logPath (appended, so a restart keeps the first life's log).
func startServer(ctx context.Context, bin string, flags []string, logPath string) (*serverProc, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, waitCh: make(chan error, 1), logFile: logFile, BaseURL: "http://" + addr}
	go func() { p.waitCh <- cmd.Wait() }()

	// A dedicated client without keep-alive: the readiness probes must not
	// leave a second connection open beside the one the workload uses.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(p.BaseURL + "/api/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.SetupSeconds = time.Since(start).Seconds()
				return p, nil
			}
		}
		select {
		case werr := <-p.waitCh:
			logFile.Close()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("cbirserver exited before it was ready: %v\n%s", werr, lastLines(string(tail), 10))
		default:
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			p.kill()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, errors.New("cbirserver not ready after 60s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// kill sends SIGKILL — the server gets no chance to flush, snapshot or close
// its journal — and waits until the process is gone.
func (p *serverProc) kill() {
	if p == nil || p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.waitCh
	p.logFile.Close()
	p.cmd = nil
}

// peakRSSMB reads the server's VmHWM (peak resident set) from /proc.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
