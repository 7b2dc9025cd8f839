package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/serve"
)

// Domains of the generated multi-domain corpus, in interleave order.
var domains = []string{"camera", "music", "petroleum", "pharma", "news"}

// generate returns n documents of one domain.
func generate(domain string, seed int64, n int) []corpus.Document {
	switch domain {
	case "camera":
		return corpus.DigitalCameraReviews(seed, n)
	case "music":
		return corpus.MusicReviews(seed, n)
	case "petroleum":
		return corpus.PetroleumWeb(seed, n)
	case "pharma":
		return corpus.PharmaWeb(seed, n)
	case "news":
		return corpus.PetroleumNews(seed, n)
	}
	panic("unknown domain " + domain)
}

// multiDomain returns perDomain documents of each domain, interleaved
// so every batch mixes domains. Each domain draws its own seed from the
// run's seed.
func multiDomain(seed int64, perDomain int) []webfountain.Document {
	var byDomain [][]corpus.Document
	for i, d := range domains {
		byDomain = append(byDomain, generate(d, seed*101+int64(i), perDomain))
	}
	out := make([]webfountain.Document, 0, perDomain*len(domains))
	for k := 0; k < perDomain; k++ {
		for _, docs := range byDomain {
			out = append(out, toDoc(docs[k]))
		}
	}
	return out
}

func toDoc(d corpus.Document) webfountain.Document {
	return webfountain.Document{ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text()}
}

func toServe(d webfountain.Document) serve.Doc {
	return serve.Doc{ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text}
}

// batches splits docs into batches of size n.
func batches[T any](docs []T, n int) [][]T {
	var out [][]T
	for i := 0; i < len(docs); i += n {
		j := i + n
		if j > len(docs) {
			j = len(docs)
		}
		out = append(out, docs[i:j])
	}
	return out
}

// tenants is the pool requests draw their x-tenant header from, large
// enough that no tenant nears the gateway's default 50/s rate even at
// several times today's request rates.
var tenants = func() []string {
	out := make([]string, 256)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%03d", i)
	}
	return out
}()

// datedFacts mines one document with a reference miner and returns its
// facts as the serving tier's aggregates should count them.
func datedFacts(m *webfountain.SentimentMiner, d webfountain.Document) []serve.Fact {
	var out []serve.Fact
	for _, f := range m.AnalyzeText(d.Text) {
		out = append(out, serve.Fact{Subject: f.Subject, Feature: f.Feature, Date: d.Date, Positive: f.Polarity == webfountain.Positive})
	}
	return out
}

// warm runs both mining modes over a few documents, so lazily built
// matchers and tables exist, and then collects garbage, before timing.
func warm() {
	docs := multiDomain(424242, 4)
	// A config without extra lexicon or patterns cannot fail.
	ne, _ := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	subj, _ := webfountain.NewSentimentMiner(cameraSubjects())
	for _, d := range docs {
		ne.AnalyzeText(d.Text)
		subj.AnalyzeText(d.Text)
	}
	runtime.GC()
}

// cameraSubjects is the predefined-subjects configuration of the
// paper's camera study: every product and feature term, with the
// products disambiguated against music-domain senses.
func cameraSubjects() webfountain.MinerConfig {
	var cfg webfountain.MinerConfig
	for _, p := range corpus.CameraProducts {
		cfg.Subjects = append(cfg.Subjects, webfountain.Subject{
			Canonical: p,
			OnTopic:   []string{"camera", "pictures", "lens", "battery", "photos"},
			OffTopic:  []string{"album", "soundtrack", "song", "band"},
		})
	}
	for _, f := range corpus.CameraFeatures {
		cfg.Subjects = append(cfg.Subjects, webfountain.Subject{Canonical: f})
	}
	return cfg
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
