// Package cmdline holds the command-line rule of the commands whose every
// input is a flag.
package cmdline

import (
	"flag"
	"fmt"
	"os"
)

// Parse parses the command line into the flags defined and exits with 2,
// naming the first argument left: flag.Parse stops at the first non-flag,
// so every flag after it would be ignored.
func Parse(command string) {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q: every input is a flag, and none after it was read\n", command, flag.Arg(0))
		fmt.Fprintf(os.Stderr, "usage: %s [flags] (%s -h lists them)\n", command, command)
		os.Exit(2)
	}
}
