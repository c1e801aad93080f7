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

// options is what the command line asks for beyond the server's config.
type options struct {
	addr, stallsIn, warn string // warn is printed before the server starts
	stats                time.Duration
}

// parseFlags maps the command line onto a pstcp.ServerConfig, rejects what
// the server cannot use and builds the timing profile -model (and -stalls)
// ask for.
func parseFlags(args []string) (cfg pstcp.ServerConfig, opt options, err error) {
	fs := flag.NewFlagSet("p3server", flag.ContinueOnError)
	fs.StringVar(&opt.addr, "addr", "127.0.0.1:9700", "listen address")
	fs.IntVar(&cfg.ID, "id", 0, "server id")
	fs.IntVar(&cfg.Workers, "workers", 4, fmt.Sprintf("worker count (pushes per update), 1..%d", pstcp.MaxWorkers))
	fs.StringVar(&cfg.Sched, "sched", "p3", "queue discipline: "+strings.Join(sched.Usage(), "|")+" (p3 = paper, fifo = baseline)")
	modelName := fs.String("model", "", "zoo model supplying the timing profile for model-aware disciplines (tictac); empty = none")
	gbps := fs.Float64("gbps", 10, "estimated wire rate (Gbps) for the timing profile's transfer estimates")
	fs.StringVar(&opt.stallsIn, "stalls", "", "calibrated mode: build the timing profile from this measured stall file (p3sim -stallsout) instead of static timing alone; requires -model")
	fs.BoolVar(&cfg.NotifyPull, "notifypull", false, "stock KVStore notify+pull instead of immediate broadcast")
	lr := fs.Float64("lr", 0.1, "server-side SGD learning rate")
	fs.DurationVar(&opt.stats, "stats", 10*time.Second, "stats print interval (0 = off)")
	if err = fs.Parse(args); err != nil {
		return cfg, opt, err
	}
	cfg.Updater = pstcp.SGDUpdater(float32(*lr))
	if cfg.Workers < 1 || cfg.Workers > pstcp.MaxWorkers {
		// Worker ids are one byte: a 257th worker could never push.
		return cfg, opt, fmt.Errorf("-workers %d: must be in [1, %d]", cfg.Workers, pstcp.MaxWorkers)
	}
	disc, err := sched.ByName(cfg.Sched)
	if err != nil {
		return cfg, opt, err
	}
	if *modelName == "" {
		if opt.stallsIn != "" {
			return cfg, opt, fmt.Errorf("-stalls requires -model (the stall profile is per-layer)")
		}
		if _, wantsProfile := disc.(sched.Profiled); wantsProfile {
			opt.warn = fmt.Sprintf("-sched %s without -model has no timing profile and degrades to p3 ordering", cfg.Sched)
		}
		return cfg, opt, nil
	}
	m, err := zoo.Lookup(*modelName)
	if err != nil {
		return cfg, opt, err
	}
	cfg.Profile = strategy.ComputeProfile(m, *gbps)
	if opt.stallsIn != "" {
		stalls, err := strategy.ReadStallFile(opt.stallsIn)
		if err != nil {
			return cfg, opt, err
		}
		cfg.Profile = strategy.CalibrateProfile(m, *gbps, stalls)
	}
	return cfg, opt, nil
}

func main() {
	cfg, opt, err := parseFlags(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "p3server:", err)
		}
		os.Exit(2)
	}
	id := cfg.ID
	if opt.warn != "" {
		fmt.Fprintln(os.Stderr, "p3server: warning:", opt.warn)
	}
	if opt.stallsIn != "" {
		fmt.Printf("p3server %d: timing profile calibrated from measured stalls in %s\n", id, opt.stallsIn)
	}
	srv := pstcp.NewServer(cfg)
	bound, err := srv.Start(opt.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3server:", err)
		os.Exit(1)
	}
	mode := "immediate broadcast"
	if cfg.NotifyPull {
		mode = "notify+pull"
	}
	fmt.Printf("p3server %d listening on %s (workers=%d, sched=%s, %s)\n",
		id, bound, cfg.Workers, cfg.Sched, mode)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if opt.stats > 0 {
		//p3:wallclock-ok operator-facing stats cadence on the live server
		ticker := time.NewTicker(opt.stats)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				p, u := srv.Stats()
				fmt.Printf("p3server %d: %d pushes processed, %d updates applied\n", id, p, u)
			case <-stop:
				srv.Close()
				fmt.Printf("p3server %d: shut down\n", id)
				return
			}
		}
	}
	<-stop
	srv.Close()
}
