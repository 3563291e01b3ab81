// Command broker runs one node of a networked multi-stage event broker
// hierarchy (Section 4's architecture over TCP).
//
// A three-node hierarchy on one machine:
//
//	broker -id root -stage 2 -listen 127.0.0.1:7001
//	broker -id N1.1 -stage 1 -listen 127.0.0.1:7002 -parent 127.0.0.1:7001
//	broker -id N1.2 -stage 1 -listen 127.0.0.1:7003 -parent 127.0.0.1:7001
//
// Publishers and subscribers connect with the pubsub command.
//
// Brokers can also federate as peers over a mesh instead of (or in
// addition to) the hierarchy — each -peer edge is configured on exactly
// one side, the other side only accepts. The mesh may contain cycles: a
// deterministic spanning-tree election picks the links that carry
// traffic and holds redundant links as standby failover paths, so a
// ring survives any single broker death without operator action:
//
//	broker -id geneva -listen 127.0.0.1:7001
//	broker -id zurich -listen 127.0.0.1:7002 -peer 127.0.0.1:7001
//	broker -id basel  -listen 127.0.0.1:7003 -peer 127.0.0.1:7002 -peer 127.0.0.1:7001
//
// The peer set is runtime-mutable: list addresses (one per line, #
// comments) in a file passed as -peers-file and send SIGHUP to re-read
// it — added addresses are dialed, removed ones hung up, and the
// election re-runs, all without restarting the broker.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eventsys/internal/broker"
	"eventsys/internal/flow"
	"eventsys/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "broker:", err)
		os.Exit(1)
	}
}

// readPeersFile parses a peers file: one address per line, blank lines
// and #-comments ignored.
func readPeersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("peers file: %w", err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("broker", flag.ContinueOnError)
	id := fs.String("id", "", "broker identity (required, e.g. N2.1)")
	stage := fs.Int("stage", 1, "filtering stage (1 = closest to subscribers)")
	listen := fs.String("listen", "127.0.0.1:7001", "TCP listen address")
	parent := fs.String("parent", "", "parent broker address (empty = root)")
	ttl := fs.Duration("ttl", time.Minute, "subscription lease TTL (0 = never expire)")
	maxBatch := fs.Int("max-batch", 0, "events coalesced per matching pass (0 = default 64, 1 = no batching)")
	var peers []string
	fs.Func("peer", "peer broker address to federate with (repeatable; each edge on one side only)", func(v string) error {
		peers = append(peers, v)
		return nil
	})
	peerMaxStage := fs.Int("peer-max-stage", 0, "clamp on hop-distance weakening of peer subscription state (0 = full filters)")
	replicaOf := fs.String("replica-of", "", "replica group to join for partitioned scale-out (empty = unpartitioned; members must also be federated via -peer)")
	partitions := fs.Int("partitions", 0, "partition count for the -replica-of group (0 = default 64; must match across the group)")
	peersFile := fs.String("peers-file", "", "file of peer addresses (one per line, # comments) re-read on SIGHUP for runtime re-peering")
	heartbeat := fs.Duration("peer-heartbeat", 0, "PeerPing interval on federation links (0 = default 2s, negative = disabled)")
	deadTimeout := fs.Duration("peer-dead-timeout", 0, "silence after which a federation link is declared dead (0 = 4x heartbeat)")
	dataDir := fs.String("data-dir", "", "durable event store directory (empty = no persistence)")
	fsync := fs.String("fsync", "batched", "store fsync policy: batched, always, or never")
	storeMax := fs.Int64("store-max-bytes", 0, "bound on the store's retained log (0 = unbounded)")
	flowPolicy := fs.String("flow-policy", "block", "slow-consumer policy: block, drop-newest, drop-oldest, or spill")
	flowWindow := fs.Int("flow-window", 0, "queue bound and sender credit window (0 = default 1024)")
	obsAddr := fs.String("obs-addr", "", "observability HTTP listen address serving /metrics, /healthz, /readyz, /debug/status and /debug/pprof (empty = disabled)")
	trace := fs.Bool("trace", false, "record hop-level latency histograms (match/forward/deliver) on /metrics")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var syncEvery int
	switch *fsync {
	case "batched":
		syncEvery = 0
	case "always":
		syncEvery = 1
	case "never":
		syncEvery = -1
	default:
		return fmt.Errorf("unknown -fsync policy %q (want batched, always, or never)", *fsync)
	}
	policy, err := flow.ParsePolicy(*flowPolicy)
	if err != nil {
		return err
	}
	level := new(slog.LevelVar)
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", *logLevel)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	staticPeers := append([]string(nil), peers...) // -peer flags: intended across re-reads
	if *peersFile != "" {
		fromFile, err := readPeersFile(*peersFile)
		if err != nil {
			return err
		}
		peers = append(peers, fromFile...)
	}
	reg := obs.NewRegistry()
	srv, err := broker.Serve(broker.ServerConfig{
		ID:                *id,
		Stage:             *stage,
		ListenAddr:        *listen,
		ParentAddr:        *parent,
		Peers:             peers,
		HeartbeatInterval: *heartbeat,
		DeadLinkTimeout:   *deadTimeout,
		PeerMaxStage:      *peerMaxStage,
		ReplicaOf:         *replicaOf,
		Partitions:        *partitions,
		TTL:               *ttl,
		MaxBatch:          *maxBatch,
		Logger:            logger,
		DataDir:           *dataDir,
		SyncEvery:         syncEvery,
		StoreMaxBytes:     *storeMax,
		FlowPolicy:        policy,
		FlowWindow:        *flowWindow,
		Obs:               reg,
		Trace:             *trace,
	})
	if err != nil {
		return err
	}
	var osrv *obs.Server
	if *obsAddr != "" {
		osrv, err = obs.Serve(*obsAddr, reg)
		if err != nil {
			srv.Close()
			return err
		}
		fmt.Printf("observability on http://%s/metrics\n", osrv.Addr())
	}
	fmt.Printf("broker %s (stage %d) listening on %s\n", *id, *stage, srv.Addr())

	if *peersFile != "" {
		// SIGHUP re-reads the peers file and re-peers at runtime: -peer
		// flags stay intended, file addresses come and go with the file.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				fromFile, err := readPeersFile(*peersFile)
				if err != nil {
					logger.Warn("peers file re-read failed", "path", *peersFile, "err", err)
					continue
				}
				srv.SetPeers(append(append([]string(nil), staticPeers...), fromFile...))
				logger.Info("re-peered from file", "path", *peersFile, "peers", len(fromFile))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	// Flip /healthz first, then drain the broker while the listener
	// still serves the 503, then stop the listener.
	reg.SetHealthy(false)
	srv.Close()
	if osrv != nil {
		_ = osrv.Close()
	}
	return nil
}
