package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"webfountain"
	"webfountain/internal/metrics"
	"webfountain/internal/serve"
)

// served-ingest: one closed-loop client POSTs batches to /api/ingest of
// a durable platform and serving tier configured as wfserver configures
// them, reads /api/overview after each ack until the batch shows, then
// the platform is closed without a final tier checkpoint (the state a
// crash leaves) and boot is timed until /api/overview answers with
// every acked fact. One round does all of this over a fresh data
// directory; a run repeats whole rounds over the same corpus.
const (
	siPerDomain = 200 // documents per domain per round (1,000 in all)
	siBatch     = 10  // documents per POST
)

// wfserver's defaults: -checkpoint-every 8, -cache-entries 256,
// -tenant-rate 50, -tenant-burst 100, -max-ingest-bytes 8 MiB, and
// the store's default fsync per record.
const siCheckpointEvery = 8

func siGatewayConfig() serve.GatewayConfig {
	return serve.GatewayConfig{CacheEntries: 256, TenantRate: 50, TenantBurst: 100, MaxIngestBytes: 8 << 20}
}

// siRound is what one round measured.
type siRound struct {
	setup, ingestWall, boot, open, recover time.Duration
	acks, visible                          samples
	ndocs, batches, repaired               int
	walBytes                               int64
	layer                                  delta // registry change over the ingest phase
	ckptMs                                 float64
	ckptBytes                              int64
}

func runServedIngest(cfg config) (*report, error) {
	rep := newReport()
	warm()
	hc := newHTTPClient()
	var rounds []siRound
	var ref *serve.View
	var refBatches [][]serve.Fact
	var refFacts int
	gt := newGatewayTrace()
	var traced, plain samples
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		tr := cfg.trace && i%2 == 1
		gt.on.Store(tr)
		r, docs, err := servedRound(cfg, rep, hc, i, tr, gt)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			// The reference fold: a fresh miner's AnalyzeText over each
			// acked document, dated, applied batch by batch.
			m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
			if err != nil {
				return nil, err
			}
			for _, b := range batches(docs, siBatch) {
				var facts []serve.Fact
				for _, d := range b {
					facts = append(facts, datedFacts(m, d)...)
				}
				refBatches = append(refBatches, facts)
				refFacts += len(facts)
			}
			ref = referenceView(refBatches)
		}
		r.check(rep, ref, refFacts)
		rounds = append(rounds, r.siRound)
		if tr {
			traced = append(traced, r.acks...)
		} else {
			plain = append(plain, r.acks...)
		}
	}

	var setup, boots []float64
	var acks, visible samples
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		boots = append(boots, r.boot.Seconds())
		acks = append(acks, r.acks...)
		visible = append(visible, r.visible...)
	}
	var rates []float64
	for _, r := range rounds {
		rates = append(rates, float64(r.ndocs)/r.ingestWall.Seconds())
	}
	// Rounds are short, so the median round rejects a round a burst of
	// host noise slowed.
	rate := median(rates)
	e2eSet(rep, setup, rate, acks)
	rep.named["ingest_docs_per_s"] = per(rate)
	rep.named["ingest_ack_p50_ms"] = ms(acks.pct(50) / 1e3)
	if acks.hasTail(99) {
		rep.named["ingest_ack_p99_ms"] = ms(acks.pct(99) / 1e3)
		rep.named["ingest_visible_p99_ms"] = ms(visible.pct(99) / 1e3)
	}
	rep.named["boot_s"] = sec(median(boots))
	rep.named["rounds"] = cnt(float64(len(rounds)))
	rep.notes = append(rep.notes, fmt.Sprintf("load: 1 closed-loop client, 1 connection; %d rounds of %d docs in batches of %d", len(rounds), siPerDomain*len(domains), siBatch))
	if cfg.trace {
		servedLayers(rep, rounds, gt, refBatches, traced, plain)
	}
	return rep, nil
}

// siResult carries a round's measurements and what its checks need.
type siResult struct {
	siRound
	ackedIDs  []string
	byID      map[string]webfountain.Document
	ackGens   []uint64
	gen0      uint64
	liveView  *serve.View
	bootView  *serve.View
	bootOK    overview
	readBack  error
	freshErrs []error
}

// check runs the round's reference checks.
func (r *siResult) check(rep *report, ref *serve.View, refFacts int) {
	rep.check("served-ingest: generation per acked batch", checkGenerations(r.gen0, r.ackGens))
	rep.check("served-ingest: live aggregates vs reference fold", checkView(r.liveView, ref))
	rep.check("served-ingest: recovered aggregates vs reference fold", checkView(r.bootView, ref))
	rep.check("served-ingest: acked documents after boot", r.readBack)
	for _, e := range r.freshErrs {
		rep.check("served-ingest: overview after ack", e)
	}
	if r.bootOK.Facts != refFacts || r.bootOK.Documents != len(r.ackedIDs) {
		rep.fail("served-ingest: first overview after boot has %d facts over %d documents, want %d over %d",
			r.bootOK.Facts, r.bootOK.Documents, refFacts, len(r.ackedIDs))
	}
}

func servedTier(dir string) (*webfountain.Platform, *webfountain.ServingTier, webfountain.ServingRecovery, time.Duration, error) {
	t0 := time.Now()
	p, err := webfountain.OpenPlatform(webfountain.PlatformConfig{DataDir: filepath.Join(dir, "data")})
	if err != nil {
		return nil, nil, webfountain.ServingRecovery{}, 0, err
	}
	open := time.Since(t0)
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		p.Close()
		return nil, nil, webfountain.ServingRecovery{}, 0, err
	}
	tier, rec, err := webfountain.RecoverServingTier(p, m, webfountain.ServingTierConfig{
		CheckpointDir: filepath.Join(dir, "ckpt"), CheckpointEvery: siCheckpointEvery,
	})
	if err != nil {
		p.Close()
		return nil, nil, rec, 0, err
	}
	return p, tier, rec, open, nil
}

func servedRound(cfg config, rep *report, hc *http.Client, round int, traced bool, gt *gatewayTrace) (*siResult, []webfountain.Document, error) {
	r := &siResult{byID: map[string]webfountain.Document{}}
	dir := filepath.Join(cfg.work, fmt.Sprintf("si-%d", round))
	runtime.GC() // each round starts from the same heap

	t0 := time.Now()
	docs := multiDomain(cfg.seed, siPerDomain)
	var bodies [][]byte
	for _, b := range batches(docs, siBatch) {
		req := struct {
			Docs []serve.Doc `json:"docs"`
		}{}
		for _, d := range b {
			req.Docs = append(req.Docs, toServe(d))
			r.byID[d.ID] = d
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, body)
	}
	p, tier, _, _, err := servedTier(dir)
	if err != nil {
		return nil, nil, err
	}
	var backend serve.Backend = tier
	if cfg.trace {
		backend = gt.backend(tier)
	}
	var handler http.Handler = serve.NewGateway(backend, siGatewayConfig())
	if cfg.trace {
		handler = gt.wrap(handler)
	}
	srv := httptest.NewServer(handler)
	base := srv.URL
	r.gen0 = tier.View().Generation()
	r.setup = time.Since(t0)

	var before metrics.Snapshot
	if traced {
		before = local()
	}
	ingestStart := time.Now()
	err = r.ingest(rep, hc, base, bodies)
	r.ingestWall = time.Since(ingestStart)
	if traced {
		r.layer = newDelta()
		r.layer.addDiff(before, local())
	}
	r.liveView = tier.View()
	srv.Close()
	// A crash: the platform closes, the tier writes no final checkpoint.
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("served-ingest: %w", err)
	}
	r.walBytes = dirBytes(filepath.Join(dir, "data"))

	b0 := time.Now()
	rep.op("boot").attempted++
	p2, tier2, rec, open, err := servedTier(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("served-ingest: boot: %w", err)
	}
	r.recover = time.Since(b0) - open
	gw := serve.NewGateway(tier2, siGatewayConfig())
	rec2 := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/api/overview", nil)
	req.Header.Set("x-tenant", tenants[0])
	gw.ServeHTTP(rec2, req)
	r.boot = time.Since(b0)
	r.open = open
	r.repaired = rec.RepairedDocs
	if rec2.Code != http.StatusOK {
		p2.Close()
		return nil, nil, fmt.Errorf("served-ingest: overview after boot: %d %s", rec2.Code, rec2.Body.String())
	}
	if err := json.Unmarshal(rec2.Body.Bytes(), &r.bootOK); err != nil {
		p2.Close()
		return nil, nil, err
	}
	r.bootView = tier2.View()
	r.readBack = readBack(p2, r.ackedIDs, r.byID)
	if traced {
		t := time.Now()
		if err := tier2.Checkpoint(); err != nil {
			rep.fail("served-ingest: checkpoint: %v", err)
		}
		r.ckptMs = float64(time.Since(t).Microseconds()) / 1e3
		r.ckptBytes = newestCheckpoint(filepath.Join(dir, "ckpt"))
	}
	if err := p2.Close(); err != nil {
		return nil, nil, err
	}
	return r, docs, nil
}

// ingest runs the closed loop: each batch is POSTed, and after its ack
// /api/overview is read once. The tier publishes before it acks, so
// that first read must already show the batch.
func (r *siResult) ingest(rep *report, hc *http.Client, base string, bodies [][]byte) error {
	tn := 0
	for _, body := range bodies {
		sent := time.Now()
		rep.op("ingest").attempted++
		data, err := call(hc, http.MethodPost, base+"/api/ingest", tenants[tn%len(tenants)], body)
		tn++
		if err != nil {
			return err
		}
		r.acks.add(time.Since(sent))
		var ack ingestAck
		if err := json.Unmarshal(data, &ack); err != nil {
			return fmt.Errorf("ack: %w", err)
		}
		r.ackedIDs = append(r.ackedIDs, ack.IDs...)
		r.ackGens = append(r.ackGens, ack.Generation)
		rep.op("read").attempted++
		data, err = call(hc, http.MethodGet, base+"/api/overview", tenants[tn%len(tenants)], nil)
		tn++
		if err != nil {
			return err
		}
		r.visible.add(time.Since(sent))
		var ov overview
		if err := json.Unmarshal(data, &ov); err != nil {
			return fmt.Errorf("overview: %w", err)
		}
		if err := checkFresh(ov.Generation, ack.Generation); err != nil {
			r.freshErrs = append(r.freshErrs, err)
		}
		r.batches++
		r.ndocs += len(ack.IDs)
	}
	return nil
}

// readBack checks that every acked ID is stored with the acked text and
// date.
func readBack(p *webfountain.Platform, ids []string, want map[string]webfountain.Document) error {
	if p.NumEntities() != len(want) {
		return fmt.Errorf("%d documents stored, %d acked", p.NumEntities(), len(want))
	}
	for _, id := range ids {
		d, ok := p.Entity(id)
		if !ok {
			return fmt.Errorf("%s: acked but missing", id)
		}
		if w := want[id]; d.Text != w.Text || d.Date != w.Date {
			return fmt.Errorf("%s: stored text or date differs from the acked document", id)
		}
	}
	return nil
}

// newestCheckpoint returns the size of the newest checkpoint file.
func newestCheckpoint(dir string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ck"))
	if len(names) == 0 {
		return 0
	}
	sort.Strings(names)
	info, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0
	}
	return info.Size()
}
