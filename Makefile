.PHONY: build test bench bench-smoke bench-smoke-json bench-json bench-compare corpus-smoke corpus-rows routing-check lint-examples flow-examples batch-examples delta-examples serve-examples perfbench-smoke clean

# Output path for bench-json; override to record a new baseline, e.g.
#   make bench-json OUT=BENCH_PR2.json
OUT ?= BENCH.json

# Output path for bench-smoke-json (the CI metrics artifact).
SMOKE_OUT ?= BENCH_SMOKE.json

# Baselines for bench-compare, e.g.
#   make bench-compare BASE=BENCH_PR1.json NEW=BENCH_PR3.json
# Exits nonzero when any kernel regressed by more than 10%.
BASE ?= BENCH_PR9.json
NEW ?= BENCH_PR10.json

# Corpus seed for corpus-smoke / corpus-rows; the whole instance set
# derives from it deterministically.
CORPUS_SEED ?= 42

# Optional kernel filter (Str regexp) for bench-json, e.g.
#   make bench-json FILTER=simplex
FILTER ?=

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

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

# End-to-end smoke of the corpus -> tune pipeline (the CI configuration):
# measure the small corpus, fit a routing table from the fresh rows, and
# gate the checked-in bench/routing.json against the checked-in full
# corpus rows it was fitted from. The smoke fit is hardware-dependent
# and only checked for well-formedness; the gate on the recorded rows
# is exact and must pass on every machine.
corpus-smoke:
	dune build bin/secure_view_cli.exe
	./_build/default/bin/secure_view_cli.exe corpus --smoke \
	  --seed $(CORPUS_SEED) --out /tmp/corpus_smoke_rows.json
	./_build/default/bin/secure_view_cli.exe tune /tmp/corpus_smoke_rows.json --json \
	  > /tmp/corpus_smoke_verdict.json
	$(MAKE) routing-check
	@echo "ok: corpus-smoke (smoke fit well-formed, checked-in table gated)"

# Gate only: the checked-in routing table must be exactly the refit
# winner on the checked-in corpus rows and pass the holdout promotion
# rule (zero quality regressions, geomean no slower than hand-set).
routing-check:
	dune build bin/secure_view_cli.exe
	./_build/default/bin/secure_view_cli.exe tune bench/corpus_rows.json \
	  --check bench/routing.json

# Re-record the full checked-in corpus rows (360 instances x 5 methods,
# times included). Re-run before refitting bench/routing.json.
corpus-rows:
	dune build bin/secure_view_cli.exe
	./_build/default/bin/secure_view_cli.exe corpus --seed $(CORPUS_SEED) \
	  --out bench/corpus_rows.json

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
# hit/miss counts — including a hit on a bijectively renamed inline
# resubmission — and that two fresh runs produce byte-identical output.
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
	@grep -q '"hits":3,"misses":2' /tmp/serve_run1.out \
	  || { echo "FAIL: unexpected hit/miss counts"; cat /tmp/serve_run1.out; exit 1; }
	@grep -c '"ok":true' /tmp/serve_run1.out | grep -qx 10 \
	  || { echo "FAIL: expected 10 ok responses"; cat /tmp/serve_run1.out; exit 1; }
	@echo "ok: serve session (byte-identical runs, 3 hits / 2 misses, hits verified)"

# End-to-end correctness gate: both perfbench workloads, two seconds
# each, through the real serve daemon. The load client checks every
# answer against the pure-exact oracle (Core.Exact in Exact_mode);
# timings are printed, not gated. Both result lines must read
# "correct":true and "failed":0.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 0 \
	  > /tmp/perfbench_smoke.out
	@test "$$(grep -c '^{"correct":true,.*"failed":0,' /tmp/perfbench_smoke.out)" = 2 \
	  || { echo "FAIL: perfbench-smoke result lines"; \
	       grep '^{' /tmp/perfbench_smoke.out; exit 1; }
	@echo "ok: perfbench-smoke (both workloads correct, no failed requests)"

clean:
	dune clean
