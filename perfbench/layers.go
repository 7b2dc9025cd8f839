package main

import (
	"strings"
	"time"

	"webfountain/internal/metrics"
	"webfountain/internal/serve"
)

// layerNames lists every per-layer metric, as BENCHMARK.json does. A
// traced run reports all of them; a layer the workload does not reach
// reads 0.
var layerNames = []string{
	"gateway.ingest.self_us_per_batch", "gateway.read.self_us", "gateway.read.bytes_per_response",
	"gateway.subjects.p50_us", "gateway.sentiment.p50_us", "gateway.trend.p50_us",
	"gateway.aspects.p50_us", "gateway.overview.p50_us",
	"serving.ingest.us_per_batch", "serving.entries.us_per_call", "serving.ingest.unaccounted_us_per_batch",
	"platform.ingest.us_per_doc",
	"store.wal.appends_per_doc", "store.wal.fsyncs_per_doc", "store.wal.fsync_us_per_doc",
	"index.add.us_per_doc",
	"miner.doc.us_per_doc", "miner.tokenize.us_per_doc", "miner.pos.us_per_doc", "miner.chunk.us_per_doc",
	"miner.spot.us_per_doc", "miner.disambiguate.us_per_doc", "miner.sentiment.us_per_doc", "miner.facts_per_doc",
	"cluster.run_ms_per_pass", "cluster.run.busy_ratio",
	"serve.aggregates.apply_us_per_batch",
	"serve.cache.hit_ratio", "serve.cache.evictions_per_1k_reads", "serve.cache.stale_per_1k_reads",
	"serve.checkpoint.writes_per_1k_docs", "serve.checkpoint.write_ms", "serve.checkpoint.bytes",
	"boot.store_open_ms", "boot.recover_ms", "boot.repaired_docs", "boot.wal_bytes",
	"router.calls_per_put", "router.hedges_per_get", "router.sentiment.us_per_query", "router.sentiment.recall",
	"vinci.edge.put_us", "vinci.edge.get_us", "vinci.client.store_put_us", "vinci.client.store_get_us",
	"vinci.server.store_put_us", "vinci.server.store_get_us",
	"generator.lag_p99_us",
	"unaccounted.us_per_op", "trace.overhead_p50_pct",
}

// layerUnit is each per-layer metric's unit, read off its name.
func layerUnit(name string) string {
	last := name[strings.LastIndex(name, ".")+1:]
	switch {
	case strings.Contains(last, "us_per") || strings.HasSuffix(last, "_us"):
		return "us"
	case strings.Contains(last, "ms_per") || strings.HasSuffix(last, "_ms"):
		return "ms"
	case strings.HasSuffix(last, "_pct"):
		return "%"
	case strings.Contains(last, "bytes"):
		return "bytes"
	case strings.HasSuffix(last, "ratio") || last == "recall":
		return "ratio"
	}
	return "count"
}

// setLayer records one per-layer metric with its unit.
func setLayer(rep *report, name string, v float64) {
	rep.layers[name] = metric{v, layerUnit(name)}
}

// fillLayers sets every per-layer metric the workload did not report to
// 0 and gives each its unit.
func fillLayers(rep *report) {
	for _, n := range layerNames {
		m, ok := rep.layers[n]
		if !ok {
			m.Value = 0
		}
		m.Unit = layerUnit(n)
		rep.layers[n] = m
	}
}

// pipelineLayers reports the platform, store, index, miner and cache
// layers from a registry delta, per document stored (docs) and per
// document mined (miner.docs).
func pipelineLayers(rep *report, d delta, docs float64) {
	setLayer(rep, "platform.ingest.us_per_doc", ratio(d.sumUs("platform.ingest.doc.ns"), docs))
	setLayer(rep, "store.wal.appends_per_doc", ratio(d.c("store.wal.appends"), docs))
	setLayer(rep, "store.wal.fsyncs_per_doc", ratio(d.c("store.wal.syncs"), docs))
	setLayer(rep, "store.wal.fsync_us_per_doc", ratio(d.sumUs("store.wal.fsync.ns"), docs))
	setLayer(rep, "index.add.us_per_doc", ratio(d.sumUs("index.add.ns"), docs))
	mined := d.c("miner.docs")
	setLayer(rep, "miner.doc.us_per_doc", ratio(d.sumUs("pipeline.doc.ns"), mined))
	for _, st := range metrics.Stages {
		setLayer(rep, "miner."+st+".us_per_doc", ratio(d.sumUs("pipeline.stage."+st+".ns"), mined))
	}
	setLayer(rep, "miner.facts_per_doc", ratio(d.c("miner.facts"), mined))
	reads := d.c("serve.cache.hits") + d.c("serve.cache.misses")
	setLayer(rep, "serve.cache.hit_ratio", ratio(d.c("serve.cache.hits"), reads))
	setLayer(rep, "serve.cache.evictions_per_1k_reads", 1000*ratio(d.c("serve.cache.evictions"), reads))
	setLayer(rep, "serve.cache.stale_per_1k_reads", 1000*ratio(d.c("serve.cache.stale"), reads))
}

// applyUs times serve.Aggregates.Apply over the reference batches, from
// empty aggregates, and returns the mean per batch in µs.
func applyUs(batches [][]serve.Fact) float64 {
	agg := serve.NewAggregates()
	var s samples
	for _, b := range batches {
		t := time.Now()
		agg.Apply(b)
		s.add(time.Since(t))
	}
	return s.mean()
}

// overhead is the tracing overhead on a p50: traced rounds against the
// untraced rounds of the same run, in percent.
func overhead(traced, plain samples) float64 {
	return 100 * ratio(traced.pct(50)-plain.pct(50), plain.pct(50))
}

// servingRemainder reports the serving tier's ingest time per batch
// that the platform, miner and aggregate layers below it do not account
// for. Platform.Ingest stores documents on several workers at once, so
// its summed per-document spans can exceed its wall time.
func servingRemainder(rep *report, d delta, batches, apply float64) {
	below := ratio(d.sumUs("platform.ingest.doc.ns")+d.sumUs("pipeline.doc.ns"), batches) + apply
	setLayer(rep, "serving.ingest.unaccounted_us_per_batch", rep.layers["serving.ingest.us_per_batch"].Value-below)
}

// servedLayers reports the traced served-ingest run.
func servedLayers(rep *report, rounds []siRound, gt *gatewayTrace, refBatches [][]serve.Fact, traced, plain samples) {
	d := newDelta()
	var docs, nbatch float64
	var ckptMs, open, recov, repaired, wal, ckptBytes []float64
	for i, r := range rounds {
		if i%2 == 0 {
			continue
		}
		for n, v := range r.layer.counters {
			d.counters[n] += v
		}
		for n, v := range r.layer.hcount {
			d.hcount[n] += v
		}
		for n, v := range r.layer.hsum {
			d.hsum[n] += v
		}
		docs += float64(r.ndocs)
		nbatch += float64(r.batches)
		ckptMs = append(ckptMs, r.ckptMs)
		ckptBytes = append(ckptBytes, float64(r.ckptBytes))
		open = append(open, float64(r.open.Microseconds())/1e3)
		recov = append(recov, float64(r.recover.Microseconds())/1e3)
		repaired = append(repaired, float64(r.repaired))
		wal = append(wal, float64(r.walBytes))
	}
	gt.layers(rep)
	pipelineLayers(rep, d, docs)
	apply := applyUs(refBatches)
	setLayer(rep, "serve.aggregates.apply_us_per_batch", apply)
	setLayer(rep, "serve.checkpoint.writes_per_1k_docs", 1000*ratio(d.c("serving.checkpoints"), docs))
	setLayer(rep, "serve.checkpoint.write_ms", median(ckptMs))
	setLayer(rep, "serve.checkpoint.bytes", median(ckptBytes))
	setLayer(rep, "boot.store_open_ms", median(open))
	setLayer(rep, "boot.recover_ms", median(recov))
	setLayer(rep, "boot.repaired_docs", median(repaired))
	setLayer(rep, "boot.wal_bytes", median(wal))
	servingRemainder(rep, d, nbatch, apply)
	// What no layer accounts for on the ack: the client and HTTP
	// transport time outside the gateway handler.
	gt.mu.Lock()
	handler := 0.0
	if h := gt.handler["ingest"]; h != nil {
		handler = h.mean()
	}
	gt.mu.Unlock()
	setLayer(rep, "unaccounted.us_per_op", traced.mean()-handler)
	setLayer(rep, "trace.overhead_p50_pct", overhead(traced, plain))
	fillLayers(rep)
}
