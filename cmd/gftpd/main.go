// Command gftpd runs a standalone GridFTP server — the data-transfer-
// node role in this repository's live pipeline. It supports parallel
// streams, striping, partial and restarted transfers, and ships a
// usage-statistics record to a UDP collector after every transfer, as
// Globus servers do.
//
// Usage:
//
//	gftpd -addr 127.0.0.1:2811 -root /data -stripes 4 \
//	      -usage 127.0.0.1:4810 -host dtn01.example.org
//
// The -store flag selects the backend, which is how the paper's
// endpoint quadrants (mem-mem, mem-disk, disk-mem, disk-disk) are
// realized on the live engine:
//
//	-store dir       stream objects from/to the -root directory (default);
//	                 disk is the bottleneck, as in the disk-backed quadrants
//	-store mem       hold objects in RAM (a memory endpoint)
//	-store synthetic serve -synthetic-size pattern bytes for any name and
//	                 discard uploads (/dev/zero endpoints; no preloading)
//	-store tiered    bounded -hot-bytes RAM cache over the -root directory,
//	                 with LRU eviction counters on /metrics
//
// Authentication accepts any USER/PASS pair unless -auth user:pass is
// given.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:2811", "control-channel listen address")
		metrics   = flag.String("metrics-addr", "", "telemetry HTTP listen address serving /metrics, /spans, /counters, /healthz (optional)")
		storeKind = flag.String("store", "dir", "storage backend: dir, mem, synthetic, or tiered")
		root      = flag.String("root", ".", "directory to serve (-store dir and tiered)")
		synthSize = flag.Int64("synthetic-size", 1<<30, "object size served for every name by -store synthetic")
		hotBytes  = flag.Int64("hot-bytes", 256<<20, "RAM bound of the hot tier (-store tiered)")
		hotObject = flag.Int64("hot-object", 0, "largest object admitted to the hot tier (-store tiered; 0: hot-bytes/8)")
		stripes   = flag.Int("stripes", 1, "number of stripe data movers")
		block     = flag.Int("block", 256<<10, "MODE E block size in bytes")
		window    = flag.Int("window", 0, "sliding reassembly window every STOR is received through, in bytes (0: default 8 MiB; negative is an error); bounds per-transfer buffering of out-of-order blocks")
		usage     = flag.String("usage", "", "UDP usage-stats collector address (optional)")
		host      = flag.String("host", "", "server identity in usage logs (default: listen address)")
		auth      = flag.String("auth", "", "require this user:pass (default: accept all)")
		idle      = flag.Duration("idle", 0, "control-channel idle timeout (0: default 5m, negative: none)")
		dataTO    = flag.Duration("data-timeout", 0, "per-operation data I/O deadline (0: default 30s, negative: none)")
		acceptTO  = flag.Duration("accept-timeout", 0, "data-connection accept deadline (0: default 10s)")
		maxObj    = flag.Int64("max-object", 0, "largest object accepted by STOR in bytes (0: default 4GiB)")
		maxSess   = flag.Int("max-sessions", 0, "concurrent control-channel session cap; excess connections are shed with a 421 greeting (0: unlimited)")
		pasv      = flag.String("pasv-range", "", "shared passive data port range \"lo-hi\": pre-open these listeners at startup and demultiplex data connections to transfers by token, instead of one listener per transfer (empty: per-transfer listeners)")
		maxRate   = flag.Int64("max-rate", 0, "per-session data-plane rate cap in bits/sec, token-bucket shaped across all of a session's transfers and streams; clients may request lower via SITE RATE (0: unshaped)")
		aggRate   = flag.Int64("aggregate-rate", 0, "server-wide data-plane rate cap in bits/sec shared by ALL sessions (the contention model's aggregate capacity R); 0: uncapped")
	)
	flag.Parse()
	var hub *telemetry.Hub
	if *metrics != "" {
		hub = telemetry.NewHub()
		hub.SetProcessName("gftpd")
		ms, err := hub.ListenAndServe(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gftpd: metrics: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Fprintf(os.Stderr, "gftpd: telemetry on http://%s/metrics\n", ms.Addr())
	}
	store, desc, err := buildStore(*storeKind, *root, *synthSize, *hotBytes, *hotObject, hub)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gftpd: %v\n", err)
		os.Exit(1)
	}
	if hub != nil && (*storeKind == "dir" || *storeKind == "tiered") {
		rootDir := *root
		hub.RegisterHealth("store", func() error {
			fi, err := os.Stat(rootDir)
			if err != nil {
				return err
			}
			if !fi.IsDir() {
				return fmt.Errorf("%s: not a directory", rootDir)
			}
			return nil
		})
	}
	cfg := gridftp.Config{
		Addr:             *addr,
		Store:            store,
		Stripes:          *stripes,
		BlockSize:        *block,
		WindowSize:       *window,
		ServerHost:       *host,
		UsageAddr:        *usage,
		LogWriter:        os.Stdout,
		IdleTimeout:      *idle,
		DataTimeout:      *dataTO,
		AcceptTimeout:    *acceptTO,
		MaxObjectSize:    *maxObj,
		MaxSessions:      *maxSess,
		PasvPortRange:    *pasv,
		MaxRateBps:       *maxRate,
		AggregateRateBps: *aggRate,
		Telemetry:        hub,
	}
	if *auth != "" {
		user, pass, ok := strings.Cut(*auth, ":")
		if !ok {
			fmt.Fprintln(os.Stderr, "gftpd: -auth must be user:pass")
			os.Exit(1)
		}
		cfg.Auth = func(u, p string) bool { return u == user && p == pass }
	}
	srv, err := gridftp.Serve(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gftpd: %v\n", err)
		os.Exit(1)
	}
	if hub != nil {
		ctrl := srv.Addr()
		hub.RegisterHealth("control", func() error {
			c, err := net.DialTimeout("tcp", ctrl, 2*time.Second)
			if err != nil {
				return err
			}
			return c.Close()
		})
	}
	fmt.Fprintf(os.Stderr, "gftpd: serving %s on %s (%d stripes)\n", desc, srv.Addr(), *stripes)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Fprintln(os.Stderr, "gftpd: shutting down")
	srv.Close()
}

// buildStore constructs the selected backend and a human-readable
// description for the startup banner.
func buildStore(kind, root string, synthSize, hotBytes, hotObject int64, hub *telemetry.Hub) (gridftp.Store, string, error) {
	switch kind {
	case "dir":
		ds, err := gridftp.NewDirStore(root)
		if err != nil {
			return nil, "", err
		}
		return ds, ds.Root() + " (dir)", nil
	case "mem":
		return gridftp.NewMemStore(), "RAM (mem)", nil
	case "synthetic":
		if synthSize < 0 {
			return nil, "", fmt.Errorf("-synthetic-size must be >= 0")
		}
		return &gridftp.SyntheticStore{ObjectSize: synthSize}, fmt.Sprintf("synthetic %d-byte objects", synthSize), nil
	case "tiered":
		ds, err := gridftp.NewDirStore(root)
		if err != nil {
			return nil, "", err
		}
		ts, err := gridftp.NewTieredStore(ds, gridftp.TieredOptions{
			MaxHotBytes:       hotBytes,
			MaxHotObjectBytes: hotObject,
			Telemetry:         hub,
		})
		if err != nil {
			return nil, "", err
		}
		return ts, fmt.Sprintf("%s (tiered, %d hot bytes)", ds.Root(), hotBytes), nil
	default:
		return nil, "", fmt.Errorf("unknown -store %q (want dir, mem, synthetic, or tiered)", kind)
	}
}
