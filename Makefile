# Convenience targets; everything is plain dune underneath.

.PHONY: all build build-quiet test bench bench-csv bench-gates examples doc clean \
  reproduce lint ci trace-check profile-check trace-smoke store-smoke

all: build

build:
	dune build @all

# The build prints nothing: any warning fails it, warning 72 among them
# (a call that tail-modulo-cons leaves non-tail, so that a wide document
# would grow the stack again).  It builds in a fresh directory, because
# dune prints a file's warnings only when it compiles that file.
build-quiet:
	@dir=$$(mktemp -d) && status=0 && \
	out=$$(dune build @all --build-dir "$$dir" 2>&1) || status=$$?; \
	rm -rf "$$dir"; \
	if [ $$status -ne 0 ] || [ -n "$$out" ]; then \
	  printf '%s\n' "$$out"; echo "build-quiet: the build printed output"; exit 1; fi
	@echo "build-quiet: ok"

test:
	dune runtest

bench:
	dune exec bench/main.exe

# The bench sections with a pass bar, on the small document: the flight
# recorder and the alert evaluator each cost under 25% of p50 when on and
# idle (measured near 0%; the bar leaves room for a noisy runner), and a
# cache hit is at least 10x faster than a cold execution at p50.  Each
# section leaves its BENCH_*.json behind.
bench-gates:
	XMORPH_BENCH_FAST=1 dune exec bench/main.exe -- flight alerts cache
	@for f in BENCH_flight.json BENCH_alerts.json BENCH_cache.json; do \
	  test -s $$f || { echo "bench-gates: missing $$f"; exit 1; }; done
	@grep -oE '"overhead_p50_pct": -?[0-9.]+' BENCH_flight.json \
	  | awk '{ if (!($$2 < 25)) { print "bench-gates: flight overhead " $$2 "%"; exit 1 } }'
	@grep -oE '"overhead_p50_pct": -?[0-9.]+' BENCH_alerts.json \
	  | awk '{ if (!($$2 < 25)) { print "bench-gates: alerts overhead " $$2 "%"; exit 1 } }'
	@grep -oE '"speedup_p50": [0-9.]+' BENCH_cache.json \
	  | awk '{ if (!($$2 >= 10)) { print "bench-gates: cache speedup " $$2 "x"; exit 1 } }'
	@echo "bench-gates: ok"

# Dump every experiment table as CSV into bench-csv/ for plotting.
bench-csv:
	XMORPH_BENCH_CSV=bench-csv dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/query_guard.exe
	dune exec examples/schema_evolution.exe
	dune exec examples/info_loss.exe
	dune exec examples/dblp_reshape.exe
	dune exec examples/live_view.exe
	dune exec examples/integration.exe
	dune exec examples/xslt_vs_guard.exe

# The full reproduction: build, run the test suite, regenerate every table
# and figure, and leave the transcripts at the repository root.
reproduce: build
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Style gate (no ocamlformat in the toolchain, so enforce the invariants
# it would: no trailing whitespace anywhere, no tabs in OCaml sources).
lint:
	@bad=$$(git ls-files '*.ml' '*.mli' '*.md' 'dune-project' '*/dune' \
	  | xargs grep -ln ' $$' 2>/dev/null); \
	if [ -n "$$bad" ]; then \
	  echo "trailing whitespace in:"; echo "$$bad"; exit 1; fi
	@bad=$$(git ls-files '*.ml' '*.mli' \
	  | xargs grep -lP '\t' 2>/dev/null); \
	if [ -n "$$bad" ]; then \
	  echo "tab characters in:"; echo "$$bad"; exit 1; fi
	@echo "lint: ok"

# A one-shot --trace names what ran, not only that it ran: the loss span
# carries its classification and the render span the store bytes it read
# and the output bytes it wrote; each closest join and the emit under the
# render are spans too.
TRACE ?= telemetry/trace.json
trace-check:
	@python3 -c 'import json, sys; \
	ev = json.load(open(sys.argv[1]))["traceEvents"]; \
	has = lambda n, k: any(e["name"] == n and k in e["args"] for e in ev); \
	missing = ["attribute " + n + "." + k for n, k in [("loss", "classification"), ("render", "bytes_read"), ("render", "bytes_written")] if not has(n, k)]; \
	missing += ["a span named " + n + "..." for n in ["closest(", "emit"] if not any(e["name"].startswith(n) for e in ev)]; \
	sys.exit(sys.argv[1] + ": missing " + ", ".join(missing) if missing else 0)' $(TRACE)
	@echo "trace-check: ok ($(TRACE))"

# A --profile file holds the operator tree, not just its brackets: an
# xml.parse root, a compile root with the loss analysis under it, and a
# render root that read store blocks and ran a closest join.
PROFILE ?= telemetry/profile.json
profile-check:
	@python3 -c 'import json, sys; \
	roots = json.load(open(sys.argv[1]))["profile"]; \
	named = lambda n: [f for f in roots if f["name"] == n]; \
	render = named("render"); \
	checks = [("an xml.parse root", named("xml.parse") != []), \
	  ("a compile root", named("compile") != []), \
	  ("a loss frame under compile", any(c["name"] == "loss" for f in named("compile") for c in f.get("children", []))), \
	  ("a render frame with blocks_read > 0", any(f["blocks_read"] > 0 for f in render)), \
	  ("a closest( child under render", any(c["name"].startswith("closest(") for f in render for c in f.get("children", [])))]; \
	missing = [n for n, ok in checks if not ok]; \
	sys.exit(sys.argv[1] + ": missing " + "; ".join(missing) if missing else 0)' $(PROFILE)
	@echo "profile-check: ok ($(PROFILE))"

# One-shot telemetry end to end, as CI runs it: a traced, profiled run
# with metrics on DBLP seed 7, the profile subcommand, then the content
# checks above.
trace-smoke:
	mkdir -p telemetry
	dune exec bin/xmorph_cli.exe -- gen dblp --seed 7 -o telemetry/dblp.xml
	dune exec bin/xmorph_cli.exe -- run --trace telemetry/trace.json \
	  --metrics telemetry/metrics.json --profile telemetry/profile.json \
	  "MORPH author [ title ]" telemetry/dblp.xml > /dev/null
	dune exec bin/xmorph_cli.exe -- profile "MORPH author [ title ]" \
	  telemetry/dblp.xml
	@for f in trace metrics profile; do \
	  test -s "telemetry/$$f.json" || { echo "missing telemetry/$$f.json"; exit 1; }; \
	done
	$(MAKE) trace-check TRACE=telemetry/trace.json
	$(MAKE) profile-check PROFILE=telemetry/profile.json

# A saved and loaded store answers as the XML it was shredded from, on a
# bench-sized document: identity MUTATE and the four Fig. 15 XMark guards
# render the same bytes over both, and a quantified check prints the same
# report.  This runs the store's save/load path and the closest join over
# a loaded store, which the unit pins do not reach.
XMORPH_EXE = _build/default/bin/xmorph_cli.exe
STORE_SMOKE_GUARDS = \
  "MUTATE site" \
  "MORPH site [ people [ person [ address [ city ] ] ] ]" \
  "MORPH site [ people [ person [ person.name [ emailaddress [ address [ street [ city [ country [ zipcode ] ] ] ] ] ] ] ] ]" \
  "MORPH person [ person.name emailaddress city ]" \
  "MORPH person [ person.name emailaddress street city country zipcode age gender business education ]"
store-smoke:
	dune build bin/xmorph_cli.exe
	mkdir -p store-smoke
	$(XMORPH_EXE) gen xmark --seed 3 -o store-smoke/xmark.xml
	$(XMORPH_EXE) shred store-smoke/xmark.store store-smoke/xmark.xml > /dev/null
	@for g in $(STORE_SMOKE_GUARDS); do \
	  $(XMORPH_EXE) run "$$g" store-smoke/xmark.store > store-smoke/store.out || exit 1; \
	  $(XMORPH_EXE) run "$$g" store-smoke/xmark.xml > store-smoke/xml.out || exit 1; \
	  cmp store-smoke/store.out store-smoke/xml.out || { echo "store != XML: $$g"; exit 1; }; \
	done
	$(XMORPH_EXE) check --quantify "MUTATE site" store-smoke/xmark.store > store-smoke/store.out
	$(XMORPH_EXE) check --quantify "MUTATE site" store-smoke/xmark.xml > store-smoke/xml.out
	cmp store-smoke/store.out store-smoke/xml.out
	@echo "store-smoke: ok"

# What CI runs (.github/workflows/ci.yml mirrors this target).
ci: lint
	$(MAKE) build-quiet
	dune build @all
	dune runtest
	dune test perfbench --profile perfbench
	$(MAKE) examples
	dune exec bench/main.exe -- architectures
	dune exec bench/main.exe -- fig11 fig13
	$(MAKE) bench-gates
	$(MAKE) trace-smoke
	$(MAKE) store-smoke

clean:
	dune clean
