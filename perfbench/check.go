package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"webfountain/internal/eval"
	"webfountain/internal/serve"
)

// The reference checks. Each compares an output of the program with a
// computation the benchmark makes itself, or with a property the method
// must have; none compares with a stored copy of earlier output. They
// are plain functions so the tests can feed them wrong outputs.

// referenceView folds facts into fresh aggregates, one Apply per batch,
// the way the serving tier publishes them.
func referenceView(batches [][]serve.Fact) *serve.View {
	agg := serve.NewAggregates()
	for _, b := range batches {
		agg.Apply(b)
	}
	return agg.View()
}

// checkView compares the program's aggregate view with the reference
// fold by fingerprint, and names the first subject whose counts differ.
func checkView(got, want *serve.View) error {
	if got.Fingerprint() == want.Fingerprint() {
		return nil
	}
	if got.Facts() != want.Facts() {
		return fmt.Errorf("aggregates hold %d facts, reference fold %d", got.Facts(), want.Facts())
	}
	names := append(append([]string(nil), got.Subjects()...), want.Subjects()...)
	sort.Strings(names)
	for _, s := range names {
		if g, w := got.Counts(s), want.Counts(s); g != w {
			return fmt.Errorf("subject %q: aggregates %+v, reference fold %+v", s, g, w)
		}
	}
	return fmt.Errorf("aggregate fingerprint %.12s differs from reference fold %.12s", got.Fingerprint(), want.Fingerprint())
}

// checkMonthSums checks, for every subject, that its month buckets sum
// to its dated total (datedTotal gives the reference's dated count).
func checkMonthSums(v *serve.View, datedTotal func(subject string) int) error {
	for _, s := range v.Subjects() {
		sum := 0
		for _, b := range v.Series(s) {
			sum += b.Total()
		}
		if want := datedTotal(s); sum != want {
			return fmt.Errorf("subject %q: month buckets sum to %d, dated facts %d", s, sum, want)
		}
	}
	return nil
}

// checkGenerations checks that each acked batch moved the aggregate
// generation by exactly one, starting after first.
func checkGenerations(first uint64, acked []uint64) error {
	prev := first
	for i, g := range acked {
		if g != prev+1 {
			return fmt.Errorf("batch %d acked at generation %d, want %d", i, g, prev+1)
		}
		prev = g
	}
	return nil
}

// checkFresh checks the one-batch staleness bound: a response may not
// reflect a generation older than the last batch acked before the
// request was sent.
func checkFresh(respGen, ackedBeforeSend uint64) error {
	if respGen < ackedBeforeSend {
		return fmt.Errorf("response at generation %d, but generation %d was acked before the request", respGen, ackedBeforeSend)
	}
	return nil
}

// checkCachedBody compares a body the gateway served from its cache with
// the same request rendered by a cache-disabled gateway.
func checkCachedBody(key string, cached, fresh []byte) error {
	if !bytes.Equal(cached, fresh) {
		return fmt.Errorf("%s: cached body (%d bytes) differs from a fresh render (%d bytes)", key, len(cached), len(fresh))
	}
	return nil
}

// factKey is one mined fact, as compared between two mines.
type factKey struct {
	Doc      string
	Sentence int
	Subject  string
	Polarity int
	Feature  string
}

// checkMultiset compares two collections of keys as multisets and names
// the first key whose count differs.
func checkMultiset[K comparable](what string, got, want []K) error {
	count := map[K]int{}
	for _, k := range want {
		count[k]++
	}
	for _, k := range got {
		count[k]--
	}
	var diffs []string
	for k, n := range count {
		switch {
		case n > 0:
			diffs = append(diffs, fmt.Sprintf("missing %d× %+v", n, k))
		case n < 0:
			diffs = append(diffs, fmt.Sprintf("extra %d× %+v", -n, k))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("%s: %d got, %d want; %d keys differ, first: %s", what, len(got), len(want), len(diffs), diffs[0])
}

// checkReplicas checks that an acked document is held, with the acked
// text, by at least need nodes. texts maps each node to the text it
// returned ("" when it does not hold the document).
func checkReplicas(id, text string, texts map[string]string, need int) error {
	held := 0
	for _, t := range texts {
		if t == text {
			held++
		}
	}
	if held < need {
		return fmt.Errorf("%s: held by %d nodes, want at least %d", id, held, need)
	}
	return nil
}

// checkIDs compares a search answer with the reference index's answer.
func checkIDs(what string, got, want []string) error {
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, " ") != strings.Join(w, " ") {
		return fmt.Errorf("%s: %d IDs, reference %d", what, len(g), len(w))
	}
	return nil
}

// checkShape checks DESIGN.md §3 shape criteria 1 and 2 on gold labels:
// the miner's precision is at least three times the collocation
// baseline's, and the baseline's recall is higher than the miner's.
func checkShape(sm, col eval.Metrics) error {
	if sm.Precision() < 3*col.Precision() {
		return fmt.Errorf("miner precision %.3f is not 3× collocation precision %.3f", sm.Precision(), col.Precision())
	}
	if col.Recall() <= sm.Recall() {
		return fmt.Errorf("collocation recall %.3f does not exceed miner recall %.3f", col.Recall(), sm.Recall())
	}
	return nil
}
