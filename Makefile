.PHONY: all build test lint lint-sarif check audit deploy-demo record-replay trace-diff clean

all: build

build:
	dune build @all

test:
	dune runtest

lint:
	dune exec bin/torlint.exe

# machine-readable findings for code-scanning upload
lint-sarif:
	dune exec bin/torlint.exe -- --format sarif > torlint.sarif || true
	@test -s torlint.sarif && echo "wrote torlint.sarif"

# what CI runs
check: build test lint

# audited run: write a run ledger for a PSC + PrivCount experiment and
# replay it; exits 2 on any failed proof or budget overspend
audit:
	dune exec bin/tormeasure_cli.exe -- run fig2 --ledger ledger.jsonl
	dune exec bin/tormeasure_cli.exe -- audit ledger.jsonl

# audited deployment demo: both pipelines as message-passing parties on
# the bus, 2 benign epochs, published bytes checked against the
# in-process reference, then the per-party ledger replayed through
# `audit` (exits 2 on any failed proof or budget overspend)
deploy-demo:
	dune exec bin/tormeasure_cli.exe -- deploy --scenario benign --epochs 2 --ledger deploy-ledger.jsonl
	dune exec bin/tormeasure_cli.exe -- audit deploy-ledger.jsonl

# record one small network day to binary trace segments, then replay
# it through ingestion with --verify at two pool sizes: the replayed
# tallies must match the recorded headers exactly both times
record-replay:
	dune exec bin/tormeasure_cli.exe -- record --out nd-trace -s 7 --clients 200 --shards 4 --relays 80
	dune exec bin/tormeasure_cli.exe -- replay nd-trace --verify --jobs 1
	dune exec bin/tormeasure_cli.exe -- replay nd-trace --verify --jobs 4

# compare phase timings of two run ledgers, e.g.
#   make trace-diff BASE=LEDGER_baseline.jsonl NEW=ledger.jsonl
trace-diff:
	@test -n "$(BASE)" && test -n "$(NEW)" \
		|| { echo "usage: make trace-diff BASE=<a>.jsonl NEW=<b>.jsonl"; exit 1; }
	dune exec bin/trace_diff.exe -- $(BASE) $(NEW)

clean:
	dune clean
