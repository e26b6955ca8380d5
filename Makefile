.PHONY: build test bench bench-tables bench-smoke bench-smoke-json bench-json bench-compare lint-examples flow-examples batch-examples delta-examples serve-examples examples-smoke perfbench-smoke fuzz-parse clean

# Output path for bench-json; override to record a new baseline, e.g.
#   make bench-json OUT=BENCH_PR2.json
OUT ?= BENCH.json

# Output path for bench-smoke-json (the CI metrics artifact).
SMOKE_OUT ?= BENCH_SMOKE.json

# Baselines for bench-compare, e.g.
#   make bench-compare BASE=BENCH_PR1.json NEW=BENCH_PR3.json
# Exits nonzero when any kernel regressed by more than 10%.
BASE ?= BENCH_PR16.json
NEW ?= BENCH_PR17.json

# Optional kernel filter (Str regexp) for bench-json, e.g.
#   make bench-json FILTER=simplex
FILTER ?=

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# The experiment tables E01–E22 without timings: every table runs to the
# end (E10–E17 solve the hardness gadgets' ILPs through the hybrid LP
# route), and every E06 row must hold Theorem 6 (rounded cost within
# l_max times the LP bound, the LP bound at most the exact cost).
# bench-smoke skips them.
bench-tables:
	dune exec bench/main.exe -- --no-timings > /tmp/bench_tables.out \
	  || { cat /tmp/bench_tables.out; echo "FAIL: bench/main.exe exited nonzero"; exit 1; }
	@cat /tmp/bench_tables.out
	@awk '/^== / { e06 = /^== E06:/; body = 0; next } \
	  e06 && /^-/ { body = 1; next } \
	  e06 && body && NF { rows++; if ($$NF == "yes") held++ } \
	  END { if (rows == 0 || held != rows) { \
	          printf "FAIL: E06: %d of %d rows hold Theorem 6\n", held, rows; exit 1 } \
	        printf "ok: E06: all %d rows hold Theorem 6\n", rows }' /tmp/bench_tables.out

# Tiny-quota timing pass over every kernel: exercises the whole bechamel
# harness (including the pruned-vs-naive twins) in a few seconds.
bench-smoke:
	dune exec bench/main.exe -- --smoke

# Tiny-quota timing pass recorded to JSON: the file carries per-kernel
# Svutil.Metrics registries (work counts) next to the wall-clock rows,
# and CI uploads it as a build artifact.
bench-smoke-json:
	dune exec bench/main.exe -- --timings --smoke --json $(SMOKE_OUT)

# Full timing run, recorded as a flat JSON baseline; FILTER narrows the
# kernel set (Str regexp over kernel names).
bench-json:
	dune exec bench/main.exe -- --timings --json $(OUT) $(if $(FILTER),--filter '$(FILTER)')

# Per-kernel speedups between two bench-json baselines; regressions
# beyond 10% are flagged in the output.
bench-compare:
	dune exec bench/main.exe -- --compare $(BASE) $(NEW)

# Wfcheck over the example corpus: shipped specs must lint clean, and
# every fixture under examples/bad/ must report the W0xx code its file
# name announces, in both text and JSON output.
lint-examples:
	dune build bin/secure_view_cli.exe
	@for f in examples/*.swf; do \
	  ./_build/default/bin/secure_view_cli.exe lint $$f || exit 1; \
	done
	@for f in examples/bad/*.swf; do \
	  code=$$(basename $$f | cut -d_ -f1 | tr a-z A-Z); \
	  out=$$(./_build/default/bin/secure_view_cli.exe lint $$f; :); \
	  echo "$$out" | grep -q "$$code" \
	    || { echo "FAIL: $$f did not report $$code (text)"; echo "$$out"; exit 1; }; \
	  json=$$(./_build/default/bin/secure_view_cli.exe lint $$f --json; :); \
	  echo "$$json" | grep -q "\"code\":\"$$code\"" \
	    || { echo "FAIL: $$f did not report $$code (json)"; echo "$$json"; exit 1; }; \
	  echo "ok: $$f -> $$code"; \
	done
	@for code in $$(./_build/default/bin/secure_view_cli.exe lint --codes | awk '/^W[0-9]/ {print $$1}'); \
	do \
	  lc=$$(echo $$code | tr A-Z a-z); \
	  ls examples/bad/$${lc}_*.swf >/dev/null 2>&1 \
	    || { echo "FAIL: lint code $$code has no fixture examples/bad/$${lc}_*.swf"; exit 1; }; \
	done; \
	echo "ok: every lint code has a fixture"

# Privacy-flow analysis over the example corpus: every shipped spec
# must analyze without error in both text and JSON form, and the JSON
# must carry the verdict partition the solvers prune with.
flow-examples:
	dune build bin/secure_view_cli.exe
	@for f in examples/*.swf; do \
	  ./_build/default/bin/secure_view_cli.exe flow $$f >/dev/null || exit 1; \
	  json=$$(./_build/default/bin/secure_view_cli.exe flow $$f --json) || exit 1; \
	  echo "$$json" | grep -q '"must_hide"' \
	    || { echo "FAIL: $$f flow --json lacks verdicts"; echo "$$json"; exit 1; }; \
	  echo "ok: $$f -> flow"; \
	done

# Engine batch driver over the shipped specs: every good example must
# yield one "ok":true JSON line, with output independent of --jobs.
batch-examples:
	dune build bin/secure_view_cli.exe
	./_build/default/bin/secure_view_cli.exe batch examples/*.swf --jobs 4

# Incremental re-solve over the shipped edit scripts: each delta file
# names its base spec (SPEC_edit.delta -> SPEC.swf) and --verify
# re-solves the edited instance from scratch, failing on any optimum
# drift between the incremental and reference answers.
delta-examples:
	dune build bin/secure_view_cli.exe
	@for d in examples/deltas/*.delta; do \
	  spec=examples/$$(basename $$d .delta | sed 's/_[^_]*$$//').swf; \
	  ./_build/default/bin/secure_view_cli.exe delta $$spec --edits $$d --verify \
	    || { echo "FAIL: $$spec + $$d"; exit 1; }; \
	  echo "ok: $$spec + $$d"; \
	done

# Scripted JSON-lines session through the serve daemon, with cache hits
# differentially verified (--verify-hits re-solves every hit from
# scratch and fails the request on optimum drift). Asserts the expected
# hit/miss counts — including hits on two bijectively renamed inline
# resubmissions, one of a workflow whose attributes still tie after
# colour refinement, renamed so that the names sort in a new order —
# and that two fresh runs produce byte-identical output.
serve-examples:
	dune build bin/secure_view_cli.exe
	@./_build/default/bin/secure_view_cli.exe serve --verify-hits \
	  < examples/serve/session.jsonl 2>/dev/null > /tmp/serve_run1.out
	@./_build/default/bin/secure_view_cli.exe serve --verify-hits \
	  < examples/serve/session.jsonl 2>/dev/null > /tmp/serve_run2.out
	@cmp /tmp/serve_run1.out /tmp/serve_run2.out \
	  || { echo "FAIL: serve responses differ between runs"; exit 1; }
	@grep -q '"id":"fig1-renamed","ok":true,"cache":"hit"' /tmp/serve_run1.out \
	  || { echo "FAIL: renamed resubmission did not hit the cache"; \
	       cat /tmp/serve_run1.out; exit 1; }
	@grep -q '"id":"churn270-renamed","ok":true,"cache":"hit"' /tmp/serve_run1.out \
	  || { echo "FAIL: renamed tied workflow did not hit the cache"; \
	       cat /tmp/serve_run1.out; exit 1; }
	@grep -q '"hits":4,"misses":3' /tmp/serve_run1.out \
	  || { echo "FAIL: unexpected hit/miss counts"; cat /tmp/serve_run1.out; exit 1; }
	@grep -c '"ok":true' /tmp/serve_run1.out | grep -qx 12 \
	  || { echo "FAIL: expected 12 ok responses"; cat /tmp/serve_run1.out; exit 1; }
	@echo "ok: serve session (byte-identical runs, 4 hits / 3 misses, hits verified)"

# The four example programs end to end: each must run, and print the
# paper lines that do not depend on LP tie-breaks: Example 2's 64
# worlds, Example 3's unsafe view, genomics' LP bound and exact ILP
# cost (8) with its Theorem 8 check, and a holding lemma on every
# hardness gadget row.
EXAMPLES = quickstart privatization genomics hardness_gadgets

examples-smoke:
	dune build $(foreach e,$(EXAMPLES),examples/$(e).exe)
	@for e in $(EXAMPLES); do \
	  ./_build/default/examples/$$e.exe > /tmp/examples_$$e.out \
	    || { echo "FAIL: examples/$$e.exe exited nonzero"; exit 1; }; \
	done
	@grep -qF '|Worlds(R1, {a1,a3,a5})| = 64' /tmp/examples_quickstart.out \
	  || { echo "FAIL: quickstart lacks the 64 possible worlds"; exit 1; }
	@grep -qF 'min |OUT| = 3 -> NOT safe' /tmp/examples_quickstart.out \
	  || { echo "FAIL: quickstart lacks the unsafe view of Example 3"; exit 1; }
	@grep -q '^LP bound: *8$$' /tmp/examples_genomics.out \
	  || { echo "FAIL: genomics LP bound is not 8"; exit 1; }
	@grep -q '^exact ILP: .* cost 8$$' /tmp/examples_genomics.out \
	  || { echo "FAIL: genomics exact ILP cost is not 8"; exit 1; }
	@grep -qF 'Theorem 8 safety check on the exact view: true' /tmp/examples_genomics.out \
	  || { echo "FAIL: genomics Theorem 8 check"; exit 1; }
	@rows=$$(grep -cE '^(B\.|C\.|Figure )' /tmp/examples_hardness_gadgets.out); \
	  held=$$(grep -E '^(B\.|C\.|Figure )' /tmp/examples_hardness_gadgets.out | grep -c ' yes$$'); \
	  test "$$rows" -gt 0 && test "$$rows" = "$$held" \
	  || { echo "FAIL: hardness gadgets: $$held of $$rows rows hold"; \
	       cat /tmp/examples_hardness_gadgets.out; exit 1; }
	@echo "ok: examples-smoke (4 programs, paper lines present)"

# End-to-end correctness gate: both perfbench workloads, two seconds
# each, through the real serve daemon. The load client checks every
# answer against the pure-exact oracle (Core.Exact in Exact_mode);
# timings are printed, not gated. Both result lines must read
# "correct":true and "failed":0. A second, traced pass (one second per
# workload) replays every request in-process through the daemon's own
# cache path; there "correct":true also means every daemon answer was
# byte-equal to the replay's and the serve.* counters matched.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 0 \
	  > /tmp/perfbench_smoke.out
	@test "$$(grep -c '^{"correct":true,.*"failed":0,' /tmp/perfbench_smoke.out)" = 2 \
	  || { echo "FAIL: perfbench-smoke result lines"; \
	       grep '^{' /tmp/perfbench_smoke.out; exit 1; }
	python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 \
	  > /tmp/perfbench_smoke_trace.out
	@test "$$(grep -c '^{"correct":true,.*"failed":0,' /tmp/perfbench_smoke_trace.out)" = 2 \
	  || { echo "FAIL: perfbench-smoke traced result lines"; \
	       grep '^{' /tmp/perfbench_smoke_trace.out | cut -c1-200; exit 1; }
	@echo "ok: perfbench-smoke (both workloads correct, no failed requests, traced replay byte-equal)"

# Parser fuzz smoke: test_parse's two differentials over FUZZ_COUNT
# mutated fixtures each, drawn from the fixed seed FUZZ_SEED. The
# scanner must give the token-list parser's raw declarations, and
# parse_string and spec_of_raw must elaborate as the string-table
# reference does (same spec field by field, same error text apart from
# the two row errors that now name their lines). Raise FUZZ_COUNT or
# vary FUZZ_SEED for a longer sweep; a crasher becomes a fixture under
# examples/bad/ or a test case.
FUZZ_COUNT ?= 50000
FUZZ_SEED ?= 27

fuzz-parse:
	dune build test/test_parse.exe $(wildcard examples/*.swf examples/bad/*.swf)
	PARSE_FUZZ_COUNT=$(FUZZ_COUNT) QCHECK_SEED=$(FUZZ_SEED) \
	  ./_build/default/test/test_parse.exe test '(scanner|elaboration)'

clean:
	dune clean
