package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/eval"
	"webfountain/internal/lexicon"
	"webfountain/internal/metrics"
	"webfountain/internal/store"
)

// batch-mine: the paper's pipeline in predefined-subjects mode (camera
// products and features, with disambiguation). Each pass ingests the
// corpus into a fresh in-memory Platform and calls SentimentMiner.Run;
// a second miner then mines every document serially with AnalyzeText,
// which both times single-document mining and is the reference the
// pass's facts are checked against.
const (
	bmDocs        = 1500
	bmSampleEvery = 5 // after the first round, time every fifth document
)

func runBatchMine(cfg config) (*report, error) {
	rep := newReport()
	warm()
	var setups, rates, passMs []float64
	var perDoc, traced, plain samples
	ref, err := webfountain.NewSentimentMiner(cameraSubjects())
	if err != nil {
		return nil, err
	}
	var want []factKey
	wantByDoc := map[string][]factKey{}
	d := newDelta()
	var tracedDocs, tracedWall float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		tr := cfg.trace && round%2 == 1
		runtime.GC() // each pass starts from the same heap
		t0 := time.Now()
		gen := corpus.DigitalCameraReviews(cfg.seed, bmDocs)
		docs := make([]webfountain.Document, len(gen))
		for i := range gen {
			docs[i] = toDoc(gen[i])
		}
		p := webfountain.NewPlatform(webfountain.PlatformConfig{})
		setups = append(setups, time.Since(t0).Seconds())

		var before metrics.Snapshot
		if tr {
			before = local()
		}
		rep.op("pass").attempted++
		pass := time.Now()
		if _, err := p.Ingest(docs); err != nil {
			return nil, fmt.Errorf("batch-mine: ingest: %w", err)
		}
		m, err := webfountain.NewSentimentMiner(cameraSubjects())
		if err != nil {
			return nil, err
		}
		runStart := time.Now()
		facts, err := m.Run(p)
		if err != nil {
			return nil, fmt.Errorf("batch-mine: run: %w", err)
		}
		wall := time.Since(pass)
		runWall := time.Since(runStart)
		rates = append(rates, float64(len(docs))/wall.Seconds())
		passMs = append(passMs, float64(runWall.Microseconds())/1e3)
		var passLat samples
		passLat.add(wall)
		if tr {
			d.addDiff(before, local())
			tracedDocs += float64(len(docs))
			tracedWall += runWall.Seconds()
			traced = append(traced, passLat...)
		} else {
			plain = append(plain, passLat...)
		}

		// The reference: a second miner, one document at a time, over
		// the whole corpus in the first round. The corpus is the same in
		// every round, so later rounds time a sample of documents and
		// check the sample against the first round.
		for i, doc := range docs {
			if round > 0 && i%bmSampleEvery != 0 {
				continue
			}
			rep.op("analyze").attempted++
			t := time.Now()
			fs := ref.AnalyzeText(doc.Text)
			el := time.Since(t)
			perDoc.add(el)
			var keys []factKey
			for _, f := range fs {
				keys = append(keys, factKey{doc.ID, f.Sentence, f.Subject, int(f.Polarity), f.Feature})
			}
			if round == 0 {
				want = append(want, keys...)
				wantByDoc[doc.ID] = keys
			} else {
				rep.check("batch-mine: serial AnalyzeText across rounds", checkMultiset(doc.ID, keys, wantByDoc[doc.ID]))
			}
		}
		got := make([]factKey, len(facts))
		for i, f := range facts {
			got[i] = factKey{f.DocID, f.Sentence, f.Subject, int(f.Polarity), f.Feature}
		}
		rep.check("batch-mine: Run facts vs serial AnalyzeText", checkMultiset("facts", got, want))
		rep.check("batch-mine: stored annotations vs facts", checkAnnotations(p, facts))
		if round == 0 {
			rep.check("batch-mine: gold labels", checkGold(gen, facts))
		}
	}

	e2eSet(rep, setups, median(rates), perDoc)
	rep.named["batch_docs_per_s"] = per(median(rates))
	rep.named["analyze_p50_us"] = us(perDoc.pct(50))
	tail(rep, "analyze_p99_us", perDoc)
	rep.named["passes"] = cnt(float64(len(rates)))
	rep.notes = append(rep.notes, fmt.Sprintf("load: %d passes of %d camera reviews; GOMAXPROCS %d", len(rates), bmDocs, runtime.GOMAXPROCS(0)))
	if cfg.trace {
		pipelineLayers(rep, d, tracedDocs)
		setLayer(rep, "cluster.run_ms_per_pass", median(passMs))
		busy := d.sumUs("pipeline.doc.ns") / 1e6
		setLayer(rep, "cluster.run.busy_ratio", ratio(busy, tracedWall*float64(runtime.GOMAXPROCS(0))))
		// Run's time per document beyond the serial single-document cost
		// spread perfectly over GOMAXPROCS: what parallel mining loses.
		setLayer(rep, "unaccounted.us_per_op", ratio(tracedWall*1e6, tracedDocs)-perDoc.mean()/float64(runtime.GOMAXPROCS(0)))
		setLayer(rep, "trace.overhead_p50_pct", overhead(traced, plain))
		fillLayers(rep)
	}
	return rep, nil
}

// checkAnnotations checks that the annotations Run stored on each
// document are the document's facts: the platform's snapshot is read
// back and its sentiment annotations compared per document.
func checkAnnotations(p *webfountain.Platform, facts []webfountain.SubjectSentiment) error {
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		return err
	}
	st := store.New(1)
	if _, err := st.Restore(&buf); err != nil {
		return err
	}
	type ann struct {
		Doc, Subject, Polarity string
		Sentence               int
	}
	var got, want []ann
	st.ForEach(func(e *store.Entity) error {
		for _, a := range e.AnnotationsBy(webfountain.MinerName) {
			got = append(got, ann{e.ID, a.Key, a.Value, a.Sentence})
		}
		return nil
	})
	for _, f := range facts {
		want = append(want, ann{f.DocID, f.Subject, f.Polarity.String(), f.Sentence})
	}
	return checkMultiset("annotations", got, want)
}

// checkGold scores the pass's facts against the generator's gold labels
// with internal/eval and checks DESIGN.md §3 shape criteria 1–2 against
// the collocation baseline on the same cases.
func checkGold(docs []corpus.Document, facts []webfountain.SubjectSentiment) error {
	terms := append(append([]string(nil), corpus.CameraProducts...), corpus.CameraFeatures...)
	cases := eval.Cases(docs, terms)
	type key struct {
		doc      string
		sentence int
		subject  string
	}
	net := map[key]int{}
	for _, f := range facts {
		net[key{f.DocID, f.Sentence, strings.ToLower(f.Subject)}] += int(f.Polarity)
	}
	var sm eval.Metrics
	for _, c := range cases {
		n := net[key{docs[c.Doc].ID, c.SentIdx, c.Subject}]
		pred := lexicon.Neutral
		switch {
		case n > 0:
			pred = lexicon.Positive
		case n < 0:
			pred = lexicon.Negative
		}
		sm.Add(c.Gold, pred)
	}
	col := eval.NewRunner(nil).EvalCollocation(docs, cases)
	return checkShape(sm, col)
}
