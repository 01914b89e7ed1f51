# Convenience entry points; everything is plain go tooling underneath.

.PHONY: build test bench-test lint race chaos chaos-check chaos-durable chaos-dump all

build:
	go build ./...

test:
	go test ./...

# benchmark/ is a nested module, so `go test ./...` skips it; it
# compiles against internal/node and internal/durable, so any API
# change there must keep this green.
bench-test:
	go vet -C benchmark ./...
	go test -C benchmark ./...

# The repo's own static-contract suite (DESIGN.md §8). Building first
# warms the export-data cache rfhlint loads dependencies from.
lint: build
	go run ./cmd/rfhlint ./...

race:
	go test -race ./...

chaos:
	go run ./cmd/rfhchaos -seeds 50

# The same sweep with the history checkers named explicitly: every
# seed's recorded op history must linearize per key and uphold the
# session guarantees (this is also the default for `make chaos`).
chaos-check:
	go run ./cmd/rfhchaos -seeds 50 -check linearizable

# Disk-backed chaos: every crash keeps the victim's WALs and every
# restart replays them, driving recovery, rejoin re-injection and the
# chunked-transfer resume cursors.
chaos-durable:
	go run ./cmd/rfhchaos -seeds 50 -durable

# The two trajectory dumps a behaviour-preserving refactor must hold
# byte-for-byte: run on the parent and on the change with different
# DUMP_DIRs and `diff -r` them. -keep-going because a failing seed's
# trajectory is part of what must not move.
DUMP_DIR ?= /tmp/rfh-chaos-dump
chaos-dump:
	mkdir -p $(DUMP_DIR)
	-go run ./cmd/rfhchaos -seeds 50 -dump -keep-going > $(DUMP_DIR)/memory.txt
	-go run ./cmd/rfhchaos -seeds 50 -durable -dump -keep-going > $(DUMP_DIR)/durable.txt

all: build test bench-test lint
