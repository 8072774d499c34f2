package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestJSONGolden locks the -json sink wiring end-to-end: the scale-2 run
// is deterministic, so the serialized document (events + result) must be
// byte-identical run over run. Regenerate with:
//
//	go test ./cmd/smartmem-sim -args -update
func TestJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "scale-2", "-policy", "smart-alloc:P=2", "-seed", "11", "-json", "-"}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}

	// Structural sanity before the byte comparison, so a schema change
	// fails with a readable message.
	var doc struct {
		Schema string           `json:"schema"`
		Events []map[string]any `json:"events"`
		Result map[string]any   `json:"result"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Schema != "smartmem/run@1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	kinds := map[string]bool{}
	for _, e := range doc.Events {
		kind, _ := e["event"].(string)
		kinds[kind] = true
	}
	for _, want := range []string{"vm-started", "milestone", "run-completed", "sample-tick", "target-update", "run-finished"} {
		if !kinds[want] {
			t.Errorf("event stream missing kind %q (got %v)", want, kinds)
		}
	}
	if doc.Result == nil || doc.Result["policy"] != "smart-alloc(P=2%)" {
		t.Errorf("result = %v", doc.Result)
	}

	golden := filepath.Join("testdata", "scale2_smart_alloc_seed11.json.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -args -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output drifted from golden (%d bytes vs %d); rerun with -args -update if intended",
			out.Len(), len(want))
	}
}

// TestEventsNDJSON checks the -events sink: one valid JSON object per
// line, ending with the result record.
func TestEventsNDJSON(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "scale-2", "-policy", "greedy", "-seed", "11", "-events", "-"}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("only %d NDJSON lines", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v", i+1, err)
		}
		if i == len(lines)-1 {
			if m["record"] != "result" {
				t.Errorf("last line is not the result record: %s", line)
			}
		} else if m["event"] == "" {
			t.Errorf("line %d has no event kind: %s", i+1, line)
		}
	}
}

// TestTimesModeStillWorks guards the sweep path against the Session
// refactor.
func TestTimesModeStillWorks(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "scale-2", "-policy", "greedy", "-seed", "11", "-times", "-quiet"}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "greedy") {
		t.Errorf("times table missing policy column:\n%s", out.String())
	}
}

// TestClusterJSONGolden locks the cluster runtime end-to-end: the 2-node
// cluster-2 scenario is deterministic under the experiments engine, so its
// serialized document (node-tagged events + merged result with per-node
// summaries) must be byte-identical run over run. Regenerate with:
//
//	go test ./cmd/smartmem-sim -args -update
func TestClusterJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "cluster-2", "-policy", "smart-alloc:P=2", "-seed", "11", "-json", "-"}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}

	var doc struct {
		Schema string           `json:"schema"`
		Events []map[string]any `json:"events"`
		Result map[string]any   `json:"result"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	nodes := map[string]bool{}
	for _, e := range doc.Events {
		if n, _ := e["node"].(string); n != "" {
			nodes[n] = true
		}
	}
	if !nodes["n0"] || !nodes["n1"] {
		t.Errorf("events lack node tags: %v", nodes)
	}
	if doc.Result["nodes"] == nil {
		t.Error("result lacks per-node summaries")
	}

	golden := filepath.Join("testdata", "cluster2_smart_alloc_seed11.json.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -args -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output drifted from golden (%d bytes vs %d); rerun with -args -update if intended",
			out.Len(), len(want))
	}
}

// TestMemoryPressureJSONGolden locks the compressed-tier plumbing
// end-to-end: the memory-pressure run is deterministic (the tier's codec
// timing counters stay zero on the simulator's nil page data and are
// excluded from the document anyway), so its serialized form — including
// the effective_tmem sample fields and the compressed_tier result block —
// must be byte-identical run over run. Regenerate with:
//
//	go test ./cmd/smartmem-sim -args -update
func TestMemoryPressureJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "memory-pressure", "-policy", "smart-alloc:P=2", "-seed", "11", "-json", "-"}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}

	var doc struct {
		Schema string           `json:"schema"`
		Events []map[string]any `json:"events"`
		Result map[string]any   `json:"result"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	ct, _ := doc.Result["compressed_tier"].(map[string]any)
	if ct == nil {
		t.Fatal("result lacks the compressed_tier block")
	}
	if ratio, _ := ct["ratio"].(float64); ratio < 2 {
		t.Errorf("serialized compression ratio = %v, want >= 2", ct["ratio"])
	}
	effSeen := false
	for _, e := range doc.Events {
		if e["event"] == "sample-tick" && e["effective_tmem"] != nil {
			effSeen = true
			break
		}
	}
	if !effSeen {
		t.Error("no sample-tick carried effective_tmem")
	}

	golden := filepath.Join("testdata", "memory_pressure_smart_alloc_seed11.json.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -args -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output drifted from golden (%d bytes vs %d); rerun with -args -update if intended",
			out.Len(), len(want))
	}
}

// TestDiurnalJSONGolden locks one production-shaped scenario end-to-end:
// the diurnal-wave run is deterministic (its waveform table is hardcoded,
// not computed via math.Cos), so the serialized document must be
// byte-identical run over run. Regenerate with:
//
//	go test ./cmd/smartmem-sim -args -update
func TestDiurnalJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "diurnal", "-policy", "smart-alloc:P=2", "-seed", "11", "-json", "-"}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}

	var doc struct {
		Schema string           `json:"schema"`
		Events []map[string]any `json:"events"`
		Result map[string]any   `json:"result"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	crests := 0
	for _, e := range doc.Events {
		if e["event"] == "milestone" {
			if label, _ := e["label"].(string); strings.HasPrefix(label, "wave-crest-") {
				crests++
			}
		}
	}
	if crests != 6 { // 3 VMs × 2 cycles
		t.Errorf("saw %d wave-crest milestones, want 6", crests)
	}

	golden := filepath.Join("testdata", "diurnal_smart_alloc_seed11.json.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -args -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output drifted from golden (%d bytes vs %d); rerun with -args -update if intended",
			out.Len(), len(want))
	}
}

// TestTournamentWarmCache runs the same tournament twice against one memo
// directory: the second (warm) pass must serve every cell from the cache
// and produce a byte-identical league document — the CLI-level version of
// the engine's cache-integrity guarantee.
func TestTournamentWarmCache(t *testing.T) {
	memo := t.TempDir()
	run := func() []byte {
		var out, errb bytes.Buffer
		args := []string{"-tournament", "-scenario", "scale-2",
			"-policies", "greedy,smart-alloc:P=2", "-seeds", "11,23",
			"-memo", memo, "-league-json", "-", "-quiet"}
		if code := realMain(args, &out, &errb); code != 0 {
			t.Fatalf("exit code %d, stderr: %s", code, errb.String())
		}
		return out.Bytes()
	}
	cold := run()
	warm := run()
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm league JSON differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	var doc struct {
		Schema string `json:"schema"`
		League struct {
			Overall []map[string]any `json:"overall"`
		} `json:"league"`
	}
	if err := json.Unmarshal(cold, &doc); err != nil {
		t.Fatalf("league output is not valid JSON: %v", err)
	}
	if doc.Schema != "smartmem/league@1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.League.Overall) != 2 {
		t.Errorf("overall league has %d entries, want 2", len(doc.League.Overall))
	}
}

// TestTournamentWarmReadsScalars pins what a warm rerun costs, from the
// CLI's own output: every cell of a paper scenario is a hit, and the memo
// line reports under 2 KiB read per cell — the scalar record, not the
// cell's ~40 KB of time series.
func TestTournamentWarmReadsScalars(t *testing.T) {
	memo := t.TempDir()
	run := func() string {
		var out, errb bytes.Buffer
		args := []string{"-tournament", "-scenario", "s1",
			"-policies", "greedy,smart-alloc:P=2", "-seeds", "11",
			"-memo", memo, "-league-json", "-"}
		if code := realMain(args, &out, &errb); code != 0 {
			t.Fatalf("exit code %d, stderr: %s", code, errb.String())
		}
		return errb.String()
	}
	run()
	stderr := run()
	const cells = 2
	var hits, misses, writes, corrupt, read int
	at := strings.LastIndex(stderr, "memo: ")
	if at < 0 {
		t.Fatalf("no memo line on stderr:\n%s", stderr)
	}
	if _, err := fmt.Sscanf(stderr[at:], "memo: %d hits, %d misses, %d writes, %d corrupt, %d bytes read",
		&hits, &misses, &writes, &corrupt, &read); err != nil {
		t.Fatalf("memo line %q: %v", stderr[at:], err)
	}
	if hits != cells || misses != 0 || writes != 0 || corrupt != 0 {
		t.Errorf("warm run: %d hits, %d misses, %d writes, %d corrupt; want %d hits only", hits, misses, writes, corrupt, cells)
	}
	if read == 0 || read >= cells*2048 {
		t.Errorf("warm run read %d bytes for %d cells, want under 2 KiB per cell", read, cells)
	}
}

// TestListPolicies guards the policy-registry listing flag.
func TestListPolicies(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-list-policies"}, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"no-tmem", "greedy", "smart-alloc:P=<pct>"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list-policies output missing %q:\n%s", want, out.String())
		}
	}
}

// TestProfileFlags checks that -cpuprofile/-memprofile write usable files.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var out, errb bytes.Buffer
	args := []string{"-scenario", "scale-2", "-policy", "greedy", "-seed", "11",
		"-cpuprofile", cpu, "-memprofile", heap}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}
	for _, p := range []string{cpu, heap} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
