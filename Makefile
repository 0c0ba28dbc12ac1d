# Single-sourced lint/test entry points: CI calls these targets so the
# pinned tool versions and the exact analyzer set live in one place.

GO ?= go

# Pinned static-analysis tool versions. Bump deliberately, in a PR that
# also fixes whatever the new version flags.
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build test lint fmt vet cbirlint cbirlint-selftest staticcheck govulncheck loc fuzz listed

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the offline-safe local entry point: exactly the checks the
# required CI jobs run, none of which need network access.
lint: fmt vet cbirlint

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo-invariant analyzer suite (see internal/analysis). Exits 1 on
# any violation; suppress a false positive with an audited
# //cbirlint:ignore <analyzer> <reason> on or above the offending line.
cbirlint:
	$(GO) run ./cmd/cbirlint ./...

# Proves each analyzer still fires on a seeded violation, so a silently
# broken analyzer cannot keep the lint job green.
cbirlint-selftest:
	$(GO) test ./cmd/cbirlint/

# fuzz runs one fuzz target: make fuzz TARGET=FuzzExp PKG=./internal/kernel/
# [TAGS=-tags=purego] [FUZZTIME=20s]. go test -fuzz exits 0 when its pattern
# names no target ("no fuzz tests to fuzz"), so a renamed target would
# silently leave CI: the target must be listed first.
FUZZTIME ?= 20s
fuzz:
	@$(GO) test $(TAGS) -list '^$(TARGET)$$' $(PKG) | grep -qx '$(TARGET)' || { echo "$(PKG) has no fuzz target $(TARGET)"; exit 1; }
	$(GO) test $(TAGS) -run='^$$' -fuzz='^$(TARGET)$$' -fuzztime=$(FUZZTIME) $(PKG)

# listed runs the tests RUN matches in each of PKGS: make listed RUN=... PKGS=...
# [TAGS=...] [FLAGS=...]. go test -run exits 0 when RUN matches nothing ("no
# tests to run"), so every package must list a match first.
listed:
	@for p in $(PKGS); do $(GO) test $(TAGS) -list '$(RUN)' $$p | grep -qE '^(Test|Fuzz)' || { echo "-run '$(RUN)' names no test in $$p"; exit 1; }; done
	$(GO) test $(TAGS) $(FLAGS) -run '$(RUN)' $(PKGS)

# staticcheck and govulncheck install a pinned version on first run, so
# they need network once; CI runs them in dedicated jobs.
staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	"$$($(GO) env GOPATH)/bin/staticcheck" ./...

govulncheck:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	"$$($(GO) env GOPATH)/bin/govulncheck" ./...

# Non-test Go lines per package, the internal/core + internal/kernel subtotal
# and the total outside bench/: the figures the ROADMAP's size targets and the
# simplicity PRs' before/after tables quote. Every line counts, comments and
# blanks included, so stripping comments or moving code into _test.go files
# shows up as exactly that in the diff. The line after the total counts the
# _test.go lines outside bench/, so a PR that trades tests for a driver shows
# it too. The next four lines are cbirserver's flag definitions, the routes
# the server registers, the declarations under internal/ that only tests
# reach (the testOnly allowlist of TestInternalDeclarationsReachable) and the
# option-struct fields the field pass of the same test checked. Then the byte
# sizes of the four root documents, so their growth shows in every CI log.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sed 's|^\./||' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d  internal/core + internal/kernel\n", n["internal/core"] + n["internal/kernel"]; \
		printf "%7d  total outside bench/\n", t }'
	@printf '%7d  test lines outside bench/\n' $$(find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)
	@printf '%7d  cbirserver flags\n' $$(grep -c '= flag\.' cmd/cbirserver/main.go)
	@printf '%7d  server routes\n' $$(grep -c 'mux\.HandleFunc(' internal/server/server.go)
	@$(GO) test -count=1 -v -run '^TestInternalDeclarationsReachable$$' ./internal/analysis | \
		sed -n -e 's/.*: \([0-9]*\) declarations checked, \([0-9]*\) allowlist entries$$/decls \1 \2/p' \
			-e 's/.*: \([0-9]*\) option fields checked, \([0-9]*\) allowlist entries$$/fields \1 \2/p' | \
		awk '$$1 == "decls" { printf "%7d  declarations in internal/ kept without a program that reaches them (testOnly)\n", $$3 } \
			$$1 == "fields" { printf "%7d  option fields in internal/ (%d kept without a program that sets them)\n", $$2, $$3 }'
	@for f in README.md EXPERIMENTS.md CHANGES.md ROADMAP.md; do printf '%7d  bytes in %s\n' $$(wc -c < $$f) $$f; done
