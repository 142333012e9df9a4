GO ?= go

# Statement-coverage floor over ./internal/... — the runtime packages
# AND the analyzer suite (internal/analysis), so unexercised checker
# branches drag the gate down like unexercised kernel branches do
# (cover-check, mirrored by the CI coverage job).  Measured 84.6% when
# introduced; the margin absorbs run-to-run variance from the randomized
# chaos workloads.  Raise it as coverage grows — never lower it to make
# a red build green.
COVER_FLOOR := 82.0

.PHONY: all build test test-race lint tables cover cover-check ci clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The project's own analyzer suite, as the lint CI job runs it, with the
# SARIF log emitted beside it (CI uploads it to code scanning).
lint:
	$(GO) run ./cmd/halvet -sarif halvet.sarif ./...

tables:
	$(GO) run ./cmd/haltables

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
	  { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Everything the per-push CI workflow gates on, runnable locally before
# pushing: vet, gofmt, build, race tests, the halvet suite, the coverage
# floor and the allocation guards.
ci: build lint test-race cover-check
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }
	$(GO) test ./internal/core -run 'TestAlloc|TestMessageSize' -count=2

clean:
	rm -f cover.out halvet.sarif
