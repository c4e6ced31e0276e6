package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"unicode"

	"xclean/internal/dataset"
	"xclean/internal/queryset"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// The inputs come from the repository's own corpus generators
// (internal/dataset: the DBLP-like bibliography and the INEX-like
// encyclopedia of DESIGN.md §3) and the paper's query protocols
// (internal/queryset: RAND edits and the RULE misspelling list), all
// seeded from the workload seed. The program only ever sees the
// rendered XML and the query strings. What the benchmark adds is its
// own token model of the rendered XML, parsed apart from the program,
// for the co-occurrence check.

// Sizes fixes the input make-up of one run.
type Sizes struct {
	DBLPArticles  int // <article> entities of the engine workload's DBLP-like corpus
	INEXArticles  int // <article> entities of the INEX-like corpus
	ServeArticles int // <article> entities of the DBLP-like corpus the servers hold
	SetSize       int // queries per CLEAN and RAND set of each corpus (RULE: a quarter)
	PoolSize      int // distinct DBLP queries in the Zipf pool
}

// fullSizes is the measured configuration; tinySizes keeps the unit
// tests of each workload fast.
var (
	fullSizes = Sizes{DBLPArticles: 20000, INEXArticles: 1000, ServeArticles: 6000, SetSize: 400, PoolSize: 4096}
	tinySizes = Sizes{DBLPArticles: 300, INEXArticles: 30, ServeArticles: 300, SetSize: 6, PoolSize: 64}
)

// Model is the benchmark's own view of one generated corpus: for each
// token, the ascending list of top-level documents (depth-2 subtrees)
// containing it. It backs the co-occurrence check, independently of
// the program's index.
type Model struct {
	docs     int
	postings map[string][]int32
}

func newModel() *Model { return &Model{postings: map[string][]int32{}} }

// addDoc records one top-level document's tokens and returns its
// ordinal.
func (m *Model) addDoc(tokens []string) int {
	d := int32(m.docs)
	m.docs++
	for _, t := range tokens {
		p := m.postings[t]
		if n := len(p); n > 0 && p[n-1] == d {
			continue
		}
		m.postings[t] = append(p, d)
	}
	return int(d)
}

// addXML parses rendered XML and records every element at depth
// docDepth (2 for a whole corpus, 1 for one added document) as a
// document, with the words of all the text inside it.
func (m *Model) addXML(data []byte, docDepth int) error {
	dec := xml.NewDecoder(bytes.NewReader(data))
	depth := 0
	var toks []string
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if depth == docDepth {
				toks = toks[:0]
			}
		case xml.EndElement:
			if depth == docDepth {
				m.addDoc(toks)
			}
			depth--
		case xml.CharData:
			if depth >= docDepth {
				toks = append(toks, words(string(t))...)
			}
		}
	}
}

// words splits text into maximal runs of letters and digits,
// lowercased: the word boundaries the paper's tokenizer uses.
func words(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Contains reports whether w occurs anywhere in the corpus.
func (m *Model) Contains(w string) bool { return len(m.postings[w]) > 0 }

// vocabulary is the model's word set in the form the query perturber
// takes: a RAND edit must leave it.
func (m *Model) vocabulary() *tokenizer.Vocabulary {
	v := tokenizer.NewVocabulary()
	for w, p := range m.postings {
		v.Add(w, int64(len(p)))
	}
	return v
}

// CoOccur reports whether every word occurs inside one common
// top-level document. Every node at depth ≥ 2 lies inside exactly one
// such document, and the document itself has depth 2, so this is the
// paper's non-empty-result condition for entities of depth ≥ 2.
func (m *Model) CoOccur(words []string) bool {
	if len(words) == 0 {
		return false
	}
	lists := make([][]int32, len(words))
	for i, w := range words {
		lists[i] = m.postings[w]
		if len(lists[i]) == 0 {
			return false
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	for _, d := range lists[0] {
		all := true
		for _, l := range lists[1:] {
			k := sort.Search(len(l), func(i int) bool { return l[i] >= d })
			if k == len(l) || l[k] != d {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Query is one generated query with its ground truth.
type Query struct {
	Dirty string
	Truth string
	Set   string // e.g. "DBLP-RAND"
}

// Corpus is one rendered corpus plus its model and clean-query sampler.
type Corpus struct {
	Name   string
	XML    []byte
	Model  *Model
	sample func(seed int64, n int) []string // the generator's clean queries
}

// render serialises a generated tree and builds the model from the
// serialised bytes.
func render(name string, tree *xmltree.Tree, sample func(int64, int) []string) (*Corpus, error) {
	var b bytes.Buffer
	if _, err := tree.WriteXML(&b); err != nil {
		return nil, err
	}
	c := &Corpus{Name: name, XML: b.Bytes(), Model: newModel(), sample: sample}
	if err := c.Model.addXML(c.XML, 2); err != nil {
		return nil, fmt.Errorf("%s model: %w", name, err)
	}
	return c, nil
}

// A RULE set has a quarter as many queries as the CLEAN and RAND sets,
// because only queries the misspelling list covers can enter it. Of
// ruleOversample clean queries per wanted CLEAN query, enough are
// covered on both corpora to fill it, so runs ask nearly the same mix;
// a set can still fall a few queries short where usable drops some.
const (
	ruleShare      = 4
	ruleOversample = 8
)

// usable keeps queries whose every keyword, dirty and true, is one the
// program indexes (three letters or more, not a stop word), so each
// suggestion has one word per query keyword.
func usable(q queryset.Query) bool {
	for _, s := range []string{q.Dirty, q.Truth} {
		for _, w := range strings.Fields(s) {
			if len(w) < 3 || tokenizer.IsStopword(w) {
				return false
			}
		}
	}
	return len(strings.Fields(q.Truth)) >= 2
}

// querySets draws the paper's three query sets of the corpus: n clean
// queries sampled by the corpus generator, their RAND perturbations,
// and the RULE perturbations of n/ruleShare clean queries the
// misspelling list covers.
func (c *Corpus) querySets(seed int64, n int) map[string][]Query {
	clean := c.sample(seed, n*ruleOversample)
	p := queryset.NewPerturber(seed+1, c.Model.vocabulary())
	head := clean[:min(n, len(clean))]
	out := map[string][]Query{}
	for proto, qs := range map[string][]queryset.Query{
		"CLEAN": queryset.MakeClean(head),
		"RAND":  p.MakeRand(head),
		"RULE":  p.MakeRule(clean),
	} {
		set := strings.ToUpper(c.Name) + "-" + proto
		size := n
		if proto == "RULE" {
			size = max(1, n/ruleShare)
		}
		for _, q := range qs {
			if usable(q) && len(out[proto]) < size {
				out[proto] = append(out[proto], Query{Dirty: q.Dirty, Truth: q.Truth, Set: set})
			}
		}
	}
	return out
}

// pool draws up to n distinct dirty queries, taking the three query
// sets in turn.
func (c *Corpus) pool(seed int64, n int) []Query {
	sets := c.querySets(seed, n)
	seen := map[string]bool{}
	var out []Query
	for i := 0; i < n && len(out) < n; i++ {
		for _, proto := range protocols {
			if s := sets[proto]; i < len(s) && len(out) < n && !seen[s[i].Dirty] {
				seen[s[i].Dirty] = true
				out = append(out, s[i])
			}
		}
	}
	return out
}

// corpusSeed fixes the corpora across workload seeds: a seed draws the
// queries, their order, the traffic and the added documents, over the
// same data, so runs with different seeds differ in what is asked, not
// in what is searched.
const corpusSeed = 20110411

// Inputs holds the generated corpora.
type Inputs struct {
	DBLP *Corpus
	INEX *Corpus
}

// generate renders the corpora: DBLP with dblp articles, and INEX with
// inex articles unless inex is 0.
func generate(dblp, inex int) (*Inputs, error) {
	seed := int64(corpusSeed)
	in := &Inputs{}
	d := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: seed, Articles: dblp})
	var err error
	if in.DBLP, err = render("dblp", d.Tree, d.SampleQueries); err != nil {
		return nil, err
	}
	if inex > 0 {
		w := dataset.GenerateWiki(dataset.WikiConfig{Seed: seed + 1, Articles: inex})
		if in.INEX, err = render("inex", w.Tree, w.SampleQueries); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// docSource hands out new DBLP-like documents for live ingest, drawn
// by the same generator as the served corpus under further seeds, each
// with a planted token appended to its title.
type docSource struct {
	seed int64
	next []*xmltree.Node
}

// doc renders the next document with planted in its title.
func (s *docSource) doc(planted string) string {
	if len(s.next) == 0 {
		s.seed++
		s.next = dataset.GenerateDBLP(dataset.DBLPConfig{Seed: s.seed, Articles: 256}).Tree.Root.Children
	}
	art := s.next[0]
	s.next = s.next[1:]
	for _, c := range art.Children {
		if c.Label == "title" {
			c.Text += " " + planted
		}
	}
	var b bytes.Buffer
	(&xmltree.Tree{Root: art}).WriteXML(&b)
	return b.String()
}

const alphabet = "abcdefghijklmnopqrstuvwxyz"

// plantToken draws a token absent from the model: "qx" and six random
// letters.
func plantToken(rng *rand.Rand, m *Model) string {
	for {
		b := []byte("qx")
		for i := 0; i < 6; i++ {
			b = append(b, alphabet[rng.Intn(26)])
		}
		if !m.Contains(string(b)) {
			return string(b)
		}
	}
}
