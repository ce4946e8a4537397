# Convenience targets mirroring the CI workflow.

.PHONY: all build test check lint lint-typed lint-report bench clean

all: build

build:
	dune build

test:
	dune runtest

# Project static analysis (ctslint, syntactic backend): numeric
# safety and Domain-parallelism rules over lib/, bin/, bench/, test/
# and examples/.  See docs/static-analysis.md.
lint:
	dune build @lint

# Typed backend over dune's .cmt typedtrees: real float types for
# N1/N2, the F1/L1/E1 flow rules and U1 (dead library exports).
# Builds @check first.
lint-typed:
	dune build @lint-typed

# Same as lint, but also leave a machine-readable report in
# ctslint-report.json and a SARIF log in ctslint.sarif.
lint-report:
	dune exec tools/ctslint/ctslint.exe -- --config .ctslint \
	  --json ctslint-report.json --sarif ctslint.sarif \
	  lib bin bench test examples

# Tier-1 verification: what CI runs on every PR.
check:
	dune build
	dune runtest

# Micro-benchmarks only; figures come from `cts run all` / `cts analytic`.
bench:
	dune exec bench/main.exe

clean:
	dune clean
