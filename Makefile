# Convenience targets; everything is plain dune underneath.

.PHONY: all build build-quiet test bench bench-csv bench-gates examples doc clean \
  reproduce lint ci trace-check profile-check trace-smoke store-smoke serve-smoke

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

# The serve daemon end to end, on two workers under concurrent clients.
# A 158,609-byte body for MORPH author [ title ] on DBLP seed 7 at scale
# 0.5: more than 64 KiB, so every client reads it in many pieces.
#  - Served bytes = one-shot bytes, for a transform and for a query
#    (//author[position() <= 3]/title, URL-encoded).
#  - 16 curls and 16 `xmorph http` clients at once on `--workers 2`:
#    curl, a client independent of ours, reads every response (head and
#    body written apart), and every body either client read is the
#    one-shot bytes.
#  - One record per request under concurrent workers: each of the 34
#    /query POSTs (32 of them concurrent) is counted once.
#  - The daemon's own registry holds its worker budget and the render and
#    store series its executions wrote.
#  - Metrics lint (METRICS_LINT): every exposed family is well-named, has
#    HELP and TYPE lines, and label values are properly quoted/escaped.
#  - The daemon exits within 5 s of SIGTERM (status 0 or 143), or is
#    killed.
# The built binary runs directly: a backgrounded `dune exec` would absorb
# the SIGTERM meant for the daemon.  A port file left by an earlier run
# would be read as this daemon's before it has published one, so it goes
# first; the daemon is killed on any failed check.
define METRICS_LINT
/^#/ {
  if ($$1 == "#" && ($$2 == "HELP" || $$2 == "TYPE")) meta[$$3] = 1
  next
}
/^[^ ]/ {
  name = $$1
  sub(/\{.*/, "", name)
  if (name !~ /^[a-z_][a-z0-9_]*$$/) {
    print "bad family name: " name; bad = 1
  }
  fam = name
  sub(/_(bucket|sum|count)$$/, "", fam)
  if (!(name in meta) && !(fam in meta)) {
    print "no HELP/TYPE for: " name; bad = 1
  }
  if ($$0 ~ /\{/) {
    labels = $$0
    sub(/^[^{]*\{/, "", labels)
    sub(/\}.*$$/, "", labels)
    if (labels !~ /^[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\\\|\\"|\\n)*")*$$/) {
      print "bad label set: " $$0; bad = 1
    }
  }
}
END { exit bad }
endef
export METRICS_LINT
SERVE_SMOKE_QUERY = %2F%2Fauthor%5Bposition%28%29%20%3C%3D%203%5D%2Ftitle
serve-smoke:
	dune build bin/xmorph_cli.exe
	mkdir -p serve-smoke
	rm -f serve-smoke/port.txt
	$(XMORPH_EXE) gen dblp --seed 7 --scale 0.5 -o serve-smoke/dblp.xml
	$(XMORPH_EXE) shred serve-smoke/dblp.store serve-smoke/dblp.xml > /dev/null
	$(XMORPH_EXE) run 'MORPH author [ title ]' serve-smoke/dblp.store \
	  > serve-smoke/oneshot.xml
	$(XMORPH_EXE) query -g 'MORPH author [ title ]' '//author[position() <= 3]/title' \
	  serve-smoke/dblp.store > serve-smoke/oneshot-query.xml
	test -s serve-smoke/oneshot-query.xml
	@set -e; \
	$(XMORPH_EXE) serve serve-smoke/dblp.store --port 0 --workers 2 \
	  --port-file serve-smoke/port.txt \
	  --qlog serve-smoke/q.jsonl --metrics serve-smoke/m.json \
	  --stats-db serve-smoke/stats.db \
	  > serve-smoke/serve.out 2>&1 & \
	SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do [ -s serve-smoke/port.txt ] && break; sleep 0.1; done; \
	test -s serve-smoke/port.txt || { echo "serve never published its port"; \
	  cat serve-smoke/serve.out; exit 1; }; \
	BASE="http://127.0.0.1:$$(cat serve-smoke/port.txt)"; \
	curl -fsS -d 'MORPH author [ title ]' "$$BASE/query?doc=dblp.store" \
	  > serve-smoke/served.xml; \
	cmp serve-smoke/served.xml serve-smoke/oneshot.xml; \
	PIDS=""; \
	for i in $$(seq 1 16); do \
	  curl -fsS -d 'MORPH author [ title ]' "$$BASE/query?doc=dblp.store" \
	    -o serve-smoke/concurrent-$$i.xml & \
	  PIDS="$$PIDS $$!"; \
	  $(XMORPH_EXE) http POST "$$BASE/query?doc=dblp.store" \
	    --data 'MORPH author [ title ]' > serve-smoke/http-$$i.xml & \
	  PIDS="$$PIDS $$!"; \
	done; \
	for p in $$PIDS; do wait "$$p"; done; \
	for i in $$(seq 1 16); do \
	  cmp serve-smoke/concurrent-$$i.xml serve-smoke/oneshot.xml; \
	  cmp serve-smoke/http-$$i.xml serve-smoke/oneshot.xml; \
	done; \
	curl -fsS -d 'MORPH author [ title ]' \
	  "$$BASE/query?doc=dblp.store&query=$(SERVE_SMOKE_QUERY)" \
	  > serve-smoke/served-query.xml; \
	cmp serve-smoke/served-query.xml serve-smoke/oneshot-query.xml; \
	curl -fsS "$$BASE/metrics" > serve-smoke/metrics.txt; \
	for want in \
	  'xmorph_query_seconds_count{doc="dblp.store",outcome="ok"} 34' \
	  'xmorph_requests_total{route="/query",status="200"} 34' \
	  'serve_workers 2'; do \
	  grep -qxF "$$want" serve-smoke/metrics.txt || { \
	    echo "metrics.txt lacks: $$want"; exit 1; }; \
	done; \
	for series in render_elements store_bytes_read; do \
	  awk -v s="$$series" '$$1 == s && $$2 > 0 { ok = 1 } END { exit !ok }' \
	    serve-smoke/metrics.txt || { \
	    echo "metrics.txt: $$series missing or zero"; exit 1; }; \
	done; \
	awk "$$METRICS_LINT" serve-smoke/metrics.txt; \
	kill -TERM "$$SRV"; \
	( sleep 5; kill -KILL "$$SRV" 2>/dev/null ) & \
	KILLER=$$!; \
	RC=0; \
	wait "$$SRV" || RC=$$?; \
	kill "$$KILLER" 2>/dev/null || true; \
	test "$$RC" -eq 0 -o "$$RC" -eq 143 || { \
	  echo "serve did not exit within 5 s of SIGTERM (status $$RC)"; exit 1; }
	@echo "serve-smoke: ok"

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
	$(MAKE) serve-smoke
	XMORPH_BENCH_FAST=1 dune exec bench/main.exe -- serve
	test -s BENCH_serve.json

clean:
	dune clean
