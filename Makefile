# Developer entry points. Tool versions are pinned here (and mirrored
# in .github/workflows/ci.yml) rather than as go.mod tool dependencies:
# the development container has no module proxy access, so x/vuln and
# x/tools cannot be vendored — cmd/distflowlint is stdlib-only for the
# same reason, and govulncheck is fetched only where the network exists
# (CI, developer machines) at the pinned version below.

GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet lint test test-race vuln

all: build lint test

build:
	go build ./...

vet:
	go vet ./...

# gofmt-clean sources (offending files are listed on stderr), then the
# repository's invariant analyzers (DESIGN.md §12). Clean output and
# exit 0 are a merge requirement; intentional violations carry a
# reasoned //distflow:allow annotation.
lint: vet
	test -z "$$(gofmt -l . | tee /dev/stderr)"
	go run ./cmd/distflowlint ./...

# flowbench is a nested module outside ./..., so it is vetted and
# tested on its own: it imports internal/* signatures directly.
test:
	go test ./...
	cd flowbench && go vet ./... && go test ./...

test-race:
	go test -race ./...

# Needs network access to fetch the pinned scanner.
vuln:
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	govulncheck ./...
