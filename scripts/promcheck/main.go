// Command promcheck validates a Prometheus text exposition (format
// 0.0.4) against the repo's conformance rules — the same validator the
// golden scrape tests use (internal/obs.ValidateExposition). CI's
// endpoint smoke job pipes a live broker's /metrics through it.
//
// Usage:
//
//	curl -s localhost:9090/metrics | go run ./scripts/promcheck
//	go run ./scripts/promcheck http://localhost:9090/metrics
//
// A broker's exposition (recognized by its topology families) must also
// carry eventsys_engine_filters, the family that shows whether the
// stored subscriptions fit the matching engine's indexes; the four
// eventsys_conn_* families, whose ratios (frames per read, frames per
// write) show whether the socket boundary is batching; and
// eventsys_node_cover_checks_total and eventsys_node_peer_absorbed_total,
// whose ratio to subscriptions shows whether the covering index keeps
// subscription absorb sub-linear. A scrape that lost one is reported like
// a malformed one.
//
// Exit status 0 means the exposition is well-formed; 1 reports the
// first violation on stderr.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"

	"eventsys/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "promcheck:", err)
		os.Exit(1)
	}
	fmt.Println("exposition ok")
}

func run(args []string) error {
	var in io.Reader = os.Stdin
	if len(args) > 1 {
		return fmt.Errorf("usage: promcheck [metrics-url] (or pipe an exposition on stdin)")
	}
	if len(args) == 1 {
		resp, err := http.Get(args[0])
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", args[0], resp.StatusCode)
		}
		in = resp.Body
	}
	body, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	// An empty exposition is trivially "valid" but always wrong here: it
	// means the scrape itself failed (dead endpoint, broken pipe), and a
	// smoke check must not pass vacuously.
	if !bytes.Contains(body, []byte("# TYPE ")) {
		return fmt.Errorf("no metric families in input (%d bytes) — scrape failed?", len(body))
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		return err
	}
	if bytes.Contains(body, []byte("# TYPE eventsys_topology_brokers ")) {
		for _, family := range []string{
			"eventsys_engine_filters",
			"eventsys_conn_reads_total", "eventsys_conn_frames_read_total",
			"eventsys_conn_writes_total", "eventsys_conn_frames_written_total",
			"eventsys_node_cover_checks_total", "eventsys_node_peer_absorbed_total",
		} {
			if !bytes.Contains(body, []byte("# TYPE "+family+" ")) {
				return fmt.Errorf("broker exposition lacks the %s family", family)
			}
		}
	}
	return nil
}
