package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"xclean/internal/server"
)

// Each check is fed a hand-made wrong answer, so a check that can never
// fail is caught.

func testModel() *Model {
	m := newModel()
	m.addDoc([]string{"graph", "mining", "smith"})
	m.addDoc([]string{"stream", "query", "jones"})
	return m
}

func TestLevenshtein(t *testing.T) {
	for _, c := range []struct {
		a, b string
		d    int
	}{
		{"", "", 0}, {"abc", "", 3}, {"kitten", "sitting", 3},
		{"graph", "graph", 0}, {"graph", "grpah", 2}, {"mining", "minning", 1},
	} {
		if got := levenshtein(c.a, c.b); got != c.d {
			t.Errorf("levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestCheckCoOccur(t *testing.T) {
	m := testModel()
	if err := checkCoOccur(m, Sug{Query: "graph smith", Words: []string{"graph", "smith"}}); err != nil {
		t.Errorf("co-occurring words rejected: %v", err)
	}
	// Both words exist, but in different documents.
	if checkCoOccur(m, Sug{Query: "graph jones", Words: []string{"graph", "jones"}}) == nil {
		t.Error("words from different documents accepted")
	}
	if checkCoOccur(m, Sug{Query: "graph absent", Words: []string{"graph", "absent"}}) == nil {
		t.Error("word absent from the corpus accepted")
	}
}

func TestCheckWithinEps(t *testing.T) {
	good := Sug{Query: "graph mining", Words: []string{"graph", "mining"}, EditDistance: 2}
	if err := checkWithinEps("grph minin", good, 2); err != nil {
		t.Errorf("valid suggestion rejected: %v", err)
	}
	far := Sug{Query: "graph stream", Words: []string{"graph", "stream"}, EditDistance: 1}
	if checkWithinEps("grph minin", far, 2) == nil {
		t.Error("word past ε accepted")
	}
	wrongTotal := good
	wrongTotal.EditDistance = 1
	if checkWithinEps("grph minin", wrongTotal, 2) == nil {
		t.Error("wrong total edit distance accepted")
	}
	short := Sug{Query: "graph", Words: []string{"graph"}, EditDistance: 1}
	if checkWithinEps("grph minin", short, 2) == nil {
		t.Error("suggestion with fewer words than keywords accepted")
	}
}

func TestCheckScores(t *testing.T) {
	ok := []Sug{{Query: "a", Score: 3, Entities: 1}, {Query: "b", Score: 3, Entities: 2}, {Query: "c", Score: 1, Entities: 1}}
	if err := checkScores(ok, 10); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	for name, bad := range map[string][]Sug{
		"unsorted":    {{Query: "a", Score: 1, Entities: 1}, {Query: "b", Score: 2, Entities: 1}},
		"zero score":  {{Query: "a", Score: 0, Entities: 1}},
		"NaN score":   {{Query: "a", Score: math.NaN(), Entities: 1}},
		"inf score":   {{Query: "a", Score: math.Inf(1), Entities: 1}},
		"no entities": {{Query: "a", Score: 1, Entities: 0}},
	} {
		if checkScores(bad, 10) == nil {
			t.Errorf("%s list accepted", name)
		}
	}
	if checkScores(ok, 2) == nil {
		t.Error("list longer than k accepted")
	}
}

func TestReciprocalRank(t *testing.T) {
	sugs := []Sug{{Query: "x"}, {Query: "graph mining"}}
	if rr := reciprocalRank("graph mining", sugs); rr != 0.5 {
		t.Errorf("rank 2 gives %v, want 0.5", rr)
	}
	if rr := reciprocalRank("absent", sugs); rr != 0 {
		t.Errorf("missing truth gives %v, want 0", rr)
	}
}

func TestCheckSameAnswer(t *testing.T) {
	want := []Sug{{Query: "a", Score: 2, Entities: 1}, {Query: "b", Score: 1, Entities: 1}}
	same := []Sug{{Query: "a", Score: 2 * (1 + 1e-14), Entities: 1}, {Query: "b", Score: 1, Entities: 1}}
	if err := checkSameAnswer("q", same, want, 1e-12); err != nil {
		t.Errorf("equal answers rejected: %v", err)
	}
	for name, got := range map[string][]Sug{
		"reordered":    {want[1], want[0]},
		"score drift":  {{Query: "a", Score: 2 * (1 + 1e-9), Entities: 1}, want[1]},
		"entity count": {{Query: "a", Score: 2, Entities: 3}, want[1]},
		"truncated":    want[:1],
	} {
		if checkSameAnswer("q", got, want, 1e-12) == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
}

func TestPlantedWitness(t *testing.T) {
	sugs := []server.SuggestionJSON{
		{Words: []string{"graph", "mining"}, Witness: "1.3.2"},
		{Words: []string{"qxabcdef", "graph"}, Witness: "1.7.2"},
	}
	found, code, err := plantedWitness(sugs, "qxabcdef")
	if !found || code != "1.7" || err != nil {
		t.Errorf("planted token: found=%v code=%q err=%v, want true 1.7 nil", found, code, err)
	}
	// A near miss of the token is not the token.
	if found, _, _ := plantedWitness(sugs, "qxabcdeg"); found {
		t.Error("absent token reported as suggested")
	}
	if _, _, err := plantedWitness([]server.SuggestionJSON{{Words: []string{"qxabcdef"}, Witness: "1"}}, "qxabcdef"); err == nil {
		t.Error("root witness accepted as a document")
	}
}

func TestCheckerNeedsChecks(t *testing.T) {
	var c checker
	if c.ok() {
		t.Error("a run that checked nothing counts as correct")
	}
	c.add(nil)
	if !c.ok() {
		t.Error("a clean check fails the run")
	}
	c.add(errTest)
	if c.ok() {
		t.Error("a failed check leaves the run correct")
	}
}

var errTest = os.ErrInvalid

// TestWorkloadsTiny runs every workload at its tiny size, untraced and
// traced: every answer must check out, no operation may fail, and the
// mode's metrics must all be reported.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs servers for a few seconds")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := Config{Seed: 7, Seconds: 1, Trace: trace, Sizes: tinySizes, Setups: 1, Dir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			res.finish(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d checks: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, res.check.first)
			}
			if !trace {
				for _, d := range endToEnd {
					if v := res.Metrics[d.name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, v)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists in
// step with the metrics the runs print.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the runs print %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the runs print %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
