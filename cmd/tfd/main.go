// Command tfd is the ThymesisFlow control-plane daemon: it brings up a
// simulated rack (hosts, cabling, node agents), then serves the
// software-defined memory REST API.
//
// Usage:
//
//	tfd -listen :8440 -admin-token secret
//
// With -journal PATH, every attach/detach saga is write-ahead journaled to
// the file; on boot the daemon replays the journal, finishing or
// compensating sagas a previous crash left in flight. With
// -reconcile-interval D, a background loop periodically diffs control-plane
// records against executor/agent ground truth and repairs divergence. Note
// that tfd's rack is simulated in-process: its datapath state dies with the
// process, so after a restart the reconciler will (correctly) tear down
// recovered records whose datapath no longer exists.
//
// Then drive it with tfctl (or curl):
//
//	tfctl -server http://localhost:8440 -token secret \
//	      attach -compute node0 -donor node1 -bytes 1073741824 -channels 2
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/core"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
	"thymesisflow/internal/trace"
)

// The simulated rack: three hosts cabled as a full mesh, with
// transceiversPerHost transceivers on every endpoint.
var hosts = []string{"node0", "node1", "node2"}

const transceiversPerHost = 2

// flightInterval is the flight recorder's wall-clock sampling period.
const flightInterval = time.Second

func main() {
	listen := flag.String("listen", ":8440", "HTTP listen address")
	adminToken := flag.String("admin-token", "tf-admin", "bearer token with write access")
	readerToken := flag.String("reader-token", "tf-reader", "bearer token with read-only access")
	traceEvents := flag.Int("trace-events", 1<<16, "trace ring capacity in events; > 0 also enables per-stage latency attribution, served under /v1/latency (0 disables both)")
	sagaEvents := flag.Int("saga-events", 1<<14, "saga event log capacity; spans every saga step, served under /v1/events and /v1/sagas/{id}/trace (0 disables)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (admin token required)")
	journalPath := flag.String("journal", "", "write-ahead saga journal file; replayed on boot for crash recovery (empty = in-memory)")
	journalSyncEvery := flag.Int("journal-sync-every", 1, "with -journal: fsync group-commit threshold; 1 syncs per record (safest), N batches up to N records per fsync (a crash may lose the last N-1)")
	reconcileEvery := flag.Duration("reconcile-interval", 0, "run the reconciliation loop at this interval (0 disables)")
	flightRecorder := flag.Bool("flight-recorder", false, "sample control-plane saga counters into flight-recorder time series with online anomaly detection, served under /v1/timeseries and /v1/anomalies")
	flag.Parse()

	cluster := core.NewCluster()
	model := controlplane.NewModel()
	for _, n := range hosts {
		if _, err := cluster.AddHost(core.DefaultHostConfig(n)); err != nil {
			log.Fatalf("tfd: %v", err)
		}
		if err := model.AddHost(n, transceiversPerHost); err != nil {
			log.Fatalf("tfd: %v", err)
		}
	}
	if err := model.CableFullMesh(); err != nil {
		log.Fatalf("tfd: %v", err)
	}

	const cpToken = "tfd-internal-trust"
	svc := controlplane.NewService(model, controlplane.ClusterExecutor{Cluster: cluster}, cpToken)
	if *sagaEvents > 0 {
		// Before RegisterAgent, so agent-side command handling joins the
		// same event log as the saga engine.
		svc.EnableSagaTracing(*sagaEvents)
		log.Printf("tfd: saga tracing on (%d-event log), /v1/events and /v1/sagas/{id}/trace live", *sagaEvents)
	}
	for _, n := range hosts {
		svc.RegisterAgent(agent.New(n, cpToken))
	}
	if *journalPath != "" {
		j, err := controlplane.OpenFileJournal(*journalPath)
		if err != nil {
			log.Fatalf("tfd: %v", err)
		}
		if *journalSyncEvery > 1 {
			// Cap batching delay at 50ms so a quiet daemon still commits
			// promptly.
			j.SetSyncEvery(*journalSyncEvery, 50*time.Millisecond)
			log.Printf("tfd: journal group commit: fsync every %d records", *journalSyncEvery)
		}
		svc.SetJournal(j)
		rep, err := svc.Recover()
		if err != nil {
			log.Fatalf("tfd: journal recovery: %v", err)
		}
		if rep.SagasSeen > 0 {
			log.Printf("tfd: recovered journal: %d sagas seen, %d attachments restored, %d rolled forward, %d compensated, %d re-parked",
				rep.SagasSeen, rep.Restored, rep.RolledForward, rep.Compensated, rep.Reparked)
		}
	}
	if *reconcileEvery > 0 {
		stop := svc.StartReconciler(*reconcileEvery)
		defer stop()
		log.Printf("tfd: reconciliation loop every %s", *reconcileEvery)
	}
	api := controlplane.NewAPI(svc, controlplane.AuthConfig{
		AdminTokens:  []string{*adminToken},
		ReaderTokens: []string{*readerToken},
	})

	// Live telemetry: a metrics registry over the whole cluster and a
	// bounded trace ring on the shared kernel, served read-only under
	// /v1/metrics and /v1/trace/snapshot. Traced transactions carry latency
	// records anyway, so tracing also aggregates them under /v1/latency.
	reg := metrics.NewRegistry()
	cluster.RegisterMetrics(reg, "")
	var ring *trace.Ring
	if *traceEvents > 0 {
		ring = trace.NewRing(*traceEvents)
		cluster.K.SetTracer(ring)
		cluster.EnableLatency()
		svc.SetLatency(cluster)
	}
	svc.SetTelemetry(reg, ring)
	if *enablePprof {
		api.EnablePprof()
	}
	if *flightRecorder {
		rec := timeseries.NewRecorder(0)
		det := detect.New(detect.ControlPlaneRules())
		svc.SetFlightRecorder(rec, det)
		sampler := controlplane.NewFlightSampler(svc, rec, det)
		start := time.Now()
		go func() {
			for range time.Tick(flightInterval) {
				sampler.Sample(time.Since(start).Nanoseconds())
			}
		}()
		log.Printf("tfd: flight recorder on (%s tick), /v1/timeseries and /v1/anomalies live", flightInterval)
	}

	log.Printf("tfd: rack of %d hosts up, serving on %s", len(hosts), *listen)
	log.Fatal(http.ListenAndServe(*listen, api))
}
