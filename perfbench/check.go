package main

import (
	"fmt"
	"math"
	"strings"

	"xclean"
	"xclean/internal/server"
)

// The answer checks are computed apart from the program: the
// co-occurrence test runs on the generator's own token model, the
// edit distances on the Levenshtein below, and MRR on the generator's
// ground truth. Each check returns a descriptive error so a failing
// run names the query and the rule it broke.

// Sug is one suggestion as the checks see it, whichever surface
// (library call or HTTP JSON) produced it.
type Sug struct {
	Query        string
	Words        []string
	Score        float64
	Entities     int
	EditDistance int
}

func fromEngine(in []xclean.Suggestion) []Sug {
	out := make([]Sug, len(in))
	for i, s := range in {
		out[i] = Sug{Query: s.Query, Words: s.Words, Score: s.Score, Entities: s.Entities, EditDistance: s.EditDistance}
	}
	return out
}

func fromJSON(in []server.SuggestionJSON) []Sug {
	out := make([]Sug, len(in))
	for i, s := range in {
		out[i] = Sug{Query: s.Query, Words: s.Words, Score: s.Score, Entities: s.Entities, EditDistance: s.EditDistance}
	}
	return out
}

// levenshtein is the plain insertion/deletion/substitution distance
// over bytes (the generated text is ASCII).
func levenshtein(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// checkCoOccur is rule (a): the suggested words occur together in one
// subtree of depth ≥ 2, so the suggested query has a non-empty result.
func checkCoOccur(m *Model, s Sug) error {
	if !m.CoOccur(s.Words) {
		return fmt.Errorf("suggestion %q: words do not co-occur in any depth-2 subtree", s.Query)
	}
	return nil
}

// checkWithinEps is rule (b): the i-th suggested word is within eps
// edits of the i-th query keyword, and the reported total edit
// distance is the sum of the per-keyword distances.
func checkWithinEps(query string, s Sug, eps int) error {
	kws := strings.Fields(query)
	if len(kws) != len(s.Words) {
		return fmt.Errorf("suggestion %q for %q: %d words for %d keywords", s.Query, query, len(s.Words), len(kws))
	}
	total := 0
	for i, kw := range kws {
		d := levenshtein(kw, s.Words[i])
		if d > eps {
			return fmt.Errorf("suggestion %q for %q: %q is %d edits from %q (ε=%d)", s.Query, query, s.Words[i], d, kw, eps)
		}
		total += d
	}
	if total != s.EditDistance {
		return fmt.Errorf("suggestion %q for %q: reported edit distance %d, computed %d", s.Query, query, s.EditDistance, total)
	}
	if s.Query != strings.Join(s.Words, " ") {
		return fmt.Errorf("suggestion %q: query text does not match words %v", s.Query, s.Words)
	}
	return nil
}

// checkScores is rule (c): at most k suggestions, scores finite,
// positive and non-increasing, every suggestion with ≥ 1 entity.
func checkScores(sugs []Sug, k int) error {
	if len(sugs) > k {
		return fmt.Errorf("%d suggestions, more than k=%d", len(sugs), k)
	}
	for i, s := range sugs {
		if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) || s.Score <= 0 {
			return fmt.Errorf("suggestion %q: score %v is not finite and positive", s.Query, s.Score)
		}
		if i > 0 && s.Score > sugs[i-1].Score {
			return fmt.Errorf("suggestion %q: score %v above its predecessor's %v", s.Query, s.Score, sugs[i-1].Score)
		}
		if s.Entities < 1 {
			return fmt.Errorf("suggestion %q: %d entities", s.Query, s.Entities)
		}
	}
	return nil
}

// checkAnswer applies rules (a)–(c) to one answer.
func checkAnswer(m *Model, query string, sugs []Sug, eps, k int) error {
	if err := checkScores(sugs, k); err != nil {
		return fmt.Errorf("query %q: %w", query, err)
	}
	for _, s := range sugs {
		if err := checkWithinEps(query, s, eps); err != nil {
			return err
		}
		if err := checkCoOccur(m, s); err != nil {
			return fmt.Errorf("query %q: %w", query, err)
		}
	}
	return nil
}

// reciprocalRank is rule (d)'s per-query term: 1/rank of the
// generator's clean query among the suggestions, 0 when absent.
func reciprocalRank(truth string, sugs []Sug) float64 {
	for i, s := range sugs {
		if s.Query == truth {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// checkSameAnswer is rules (e) and (f): got must list the same queries
// in the same order as want, with the same entity counts and scores
// within rel relative error.
func checkSameAnswer(query string, got, want []Sug, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("query %q: %d suggestions, reference has %d", query, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Query != w.Query {
			return fmt.Errorf("query %q: rank %d is %q, reference has %q", query, i+1, g.Query, w.Query)
		}
		if math.Abs(g.Score-w.Score) > rel*math.Abs(w.Score) {
			return fmt.Errorf("query %q: %q scores %v, reference %v", query, g.Query, g.Score, w.Score)
		}
		if g.Entities != w.Entities {
			return fmt.Errorf("query %q: %q has %d entities, reference %d", query, g.Query, g.Entities, w.Entities)
		}
	}
	return nil
}

// plantedWitness is rule (f)'s lookup of a planted token: whether
// any suggestion contains the token as a word, and the top-level
// (depth-2) Dewey code of that suggestion's witness entity, the
// document removedoc takes.
func plantedWitness(sugs []server.SuggestionJSON, token string) (found bool, code string, err error) {
	for _, s := range sugs {
		for _, w := range s.Words {
			if w != token {
				continue
			}
			parts := strings.Split(s.Witness, ".")
			if len(parts) < 2 {
				return true, "", fmt.Errorf("planted %q: witness %q above depth 2", token, s.Witness)
			}
			return true, parts[0] + "." + parts[1], nil
		}
	}
	return false, "", nil
}

// checker accumulates check failures; a run is correct only when it
// recorded none. It keeps the first few messages for the log.
type checker struct {
	checked  int
	failures int
	first    []string
}

func (c *checker) add(err error) {
	c.checked++
	if err == nil {
		return
	}
	c.failures++
	if len(c.first) < 5 {
		c.first = append(c.first, err.Error())
	}
}

func (c *checker) ok() bool { return c.failures == 0 && c.checked > 0 }
