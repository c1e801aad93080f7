// Command p3server runs one real P3 parameter server over TCP — the
// deployable counterpart of the paper's modified KVServer (Section 4.2).
// Start one per machine, then point p3worker processes at the full server
// list (the paper's Appendix A workflow, minus MXNet).
//
//	p3server -addr :9700 -workers 4 -sched p3
//	p3server -addr :9701 -workers 4 -sched p3
//
// The server aggregates each key's gradient pushes, applies SGD on the Nth
// push, and immediately broadcasts the updated values (or, with
// -notifypull, uses stock KVStore notify-then-pull semantics for baseline
// measurements).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p3/internal/pstcp"
	"p3/internal/sched"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9700", "listen address")
	id := flag.Int("id", 0, "server id")
	workers := flag.Int("workers", 4, "worker count (pushes per update)")
	schedName := flag.String("sched", "p3", "queue discipline: "+strings.Join(sched.Usage(), "|")+" (p3 = paper, fifo = baseline)")
	modelName := flag.String("model", "", "zoo model supplying the timing profile for model-aware disciplines (tictac); empty = none")
	gbps := flag.Float64("gbps", 10, "estimated wire rate (Gbps) for the timing profile's transfer estimates")
	stallsIn := flag.String("stalls", "", "calibrated mode: build the timing profile from this measured stall file (p3sim -stallsout) instead of static timing alone; requires -model")
	notifyPull := flag.Bool("notifypull", false, "stock KVStore notify+pull instead of immediate broadcast")
	lr := flag.Float64("lr", 0.1, "server-side SGD learning rate")
	stats := flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
	flag.Parse()

	disc, err := sched.ByName(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3server:", err)
		os.Exit(2)
	}
	var profile *sched.Profile
	if *modelName != "" {
		m, err := zoo.Lookup(*modelName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p3server:", err)
			os.Exit(2)
		}
		if *stallsIn != "" {
			stalls, err := strategy.ReadStallFile(*stallsIn)
			if err != nil {
				fmt.Fprintln(os.Stderr, "p3server:", err)
				os.Exit(2)
			}
			profile = strategy.CalibrateProfile(m, *gbps, stalls)
			fmt.Printf("p3server %d: timing profile calibrated from measured stalls in %s\n", *id, *stallsIn)
		} else {
			profile = strategy.ComputeProfile(m, *gbps)
		}
	} else if *stallsIn != "" {
		fmt.Fprintln(os.Stderr, "p3server: -stalls requires -model (the stall profile is per-layer)")
		os.Exit(2)
	} else if _, wantsProfile := disc.(sched.Profiled); wantsProfile {
		fmt.Fprintf(os.Stderr, "p3server: warning: -sched %s without -model has no timing profile and degrades to p3 ordering\n", *schedName)
	}
	srv := pstcp.NewServer(pstcp.ServerConfig{
		ID:         *id,
		Workers:    *workers,
		Sched:      *schedName,
		Profile:    profile,
		NotifyPull: *notifyPull,
		Updater:    pstcp.SGDUpdater(float32(*lr)),
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3server:", err)
		os.Exit(1)
	}
	mode := "immediate broadcast"
	if *notifyPull {
		mode = "notify+pull"
	}
	fmt.Printf("p3server %d listening on %s (workers=%d, sched=%s, %s)\n",
		*id, bound, *workers, *schedName, mode)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *stats > 0 {
		//p3:wallclock-ok operator-facing stats cadence on the live server
		ticker := time.NewTicker(*stats)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				p, u := srv.Stats()
				fmt.Printf("p3server %d: %d pushes processed, %d updates applied\n", *id, p, u)
			case <-stop:
				srv.Close()
				fmt.Printf("p3server %d: shut down\n", *id)
				return
			}
		}
	}
	<-stop
	srv.Close()
}
