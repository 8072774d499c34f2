package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"smartmem/internal/durable"
)

// smartAllocGain is the paper's headline claim in simulated time, the
// formula of the end-to-end benchmark's paper.smart_alloc_gain_pct: the mean
// over the scenarios of (greedy − best smart-alloc spec) / greedy on the
// league's mean virtual seconds, in percent. Scenarios lacking either side
// are skipped.
func smartAllocGain(league *LeagueTable) float64 {
	var sum float64
	var n int
	for _, sl := range league.PerScenario {
		var greedy, best float64
		for _, e := range sl.Entries {
			switch {
			case e.Policy == "greedy":
				greedy = e.MeanVirtSeconds
			case strings.HasPrefix(e.Policy, "smart-alloc"):
				if best == 0 || e.MeanVirtSeconds < best {
					best = e.MeanVirtSeconds
				}
			}
		}
		if greedy > 0 && best > 0 {
			sum += (greedy - best) / greedy
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// The smart-alloc gain over greedy on the benchmark's two sweeps at its
// seed 7, pinned to four decimals: a change to any layer a tournament runs
// through that moves the paper's claim fails here. Each sweep runs cold into
// a memo, then warm from it, and both leagues must be byte-equal.
func TestSmartAllocGainPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full tournaments")
	}
	for _, tc := range []struct {
		name     string
		slugs    []string
		policies []string // nil = the union of the scenarios' own lists
		seeds    []uint64
		want     string
	}{
		{"sweep-paper", []string{"s1", "s2", "usemem", "s3"}, nil, []uint64{273490}, "26.1357"},
		{"sweep-ext", []string{"cluster-2", "remote-heavy", "node-imbalance", "memory-pressure", "restart-survivor", "scale-16"},
			[]string{"greedy", "static-alloc", "smart-alloc:P=2"}, []uint64{273490, 524993, 820686}, "18.4190"},
	} {
		var scns []*Scenario
		for _, slug := range tc.slugs {
			s, err := BySlug(slug)
			if err != nil {
				t.Fatal(err)
			}
			scns = append(scns, s)
		}
		opt := Options{Cache: NewMemo(durable.NewMemStore())}
		var leagues [2][]byte
		for pass, name := range []string{"cold", "warm"} {
			lt, err := RunTournament(scns, tc.policies, tc.seeds, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%.4f", smartAllocGain(lt)); got != tc.want {
				t.Errorf("%s %s: smart-alloc gain %s %%, pinned %s %%", tc.name, name, got, tc.want)
			}
			var buf bytes.Buffer
			if err := WriteLeagueJSON(&buf, lt); err != nil {
				t.Fatal(err)
			}
			leagues[pass] = buf.Bytes()
		}
		if !bytes.Equal(leagues[0], leagues[1]) {
			t.Errorf("%s: warm league differs from the cold one", tc.name)
		}
		if st := opt.Cache.Stats(); st.Hits != st.Misses || st.Corrupt != 0 {
			t.Errorf("%s: memo stats %+v, want every cold miss served warm", tc.name, st)
		}
	}
}
