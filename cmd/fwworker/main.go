// Command fwworker hosts shard engines for a distributed fwserve: the
// server's router tier consistent-hashes keys across a set of worker
// processes, and each worker runs the full engine stack for the shards
// placed on it, speaking the binary frame protocol over TCP.
//
// A worker is stateless at rest — every shard session starts with a
// hello control frame carrying the plan inputs and any carried state
// (an engine snapshot), so workers can join, leave, and be replaced at
// runtime (POST /topology on the server) without local persistence. Killing a worker mid-stream is safe: the router
// replays its journal onto a surviving worker, or sheds the shard's
// key range with typed errors when no worker remains.
//
// Usage:
//
//	fwworker -addr :9090
//	fwserve -addr :8080 -shards 4 -workers host1:9090,host2:9090
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"factorwindows/internal/shardworker"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address for router shard sessions")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	w := shardworker.New()
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("fwworker: shutting down")
		// Close severs live sessions; the router sees worker death and
		// fails the shards over (or sheds them). Engines here hold no
		// durable state, so there is nothing to flush.
		w.Close()
	}()
	// Log the bound address explicitly: with -addr :0 the distributed
	// test harness parses the port from this line.
	log.Printf("fwworker: listening on %s", ln.Addr())
	if err := w.Serve(ln); err != nil {
		log.Fatalf("fwworker: %v", err)
	}
}
