// Livetransfer: run real GridFTP transfers over loopback TCP — parallel
// streams, striping, a third-party transfer between two servers, and
// usage-statistics collection over UDP, the full pipeline that produced
// the logs the paper analyzes.
//
//	go run ./examples/livetransfer
package main

import (
	"fmt"
	"log"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/usagestats"
)

func main() {
	r := rig.Main()
	defer r.Close()

	// A central usage-stats collector, like the one Globus runs.
	collector, err := usagestats.NewCollector("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer collector.Close()

	// Two GridFTP servers: a striped source and a plain destination.
	payload := rig.Payload(7, 48<<20)
	src := r.Server(gridftp.Config{
		Stripes: 4, ServerHost: "dtn-src.example.org", UsageAddr: collector.Addr(),
	}, rig.Objects{"dataset.bin": payload})
	dst := r.Server(gridftp.Config{ServerHost: "dtn-dst.example.org", UsageAddr: collector.Addr()})

	// Parallel-stream retrieval (OPTS RETR Parallelism=8).
	c := r.Login(src.Addr())
	if err := c.SetParallelism(8); err != nil {
		log.Fatal(err)
	}
	data, stats8, err := c.Retr("dataset.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8-stream RETR: %d bytes in %v (%.0f Mbps)\n",
		stats8.Bytes, stats8.Duration.Round(time.Millisecond), stats8.ThroughputBps/1e6)
	if len(data) != len(payload) {
		log.Fatal("payload corrupted")
	}

	// Striped retrieval (SPAS; one connection per server stripe).
	_, statsStriped, err := c.RetrStriped("dataset.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("striped RETR:  %d bytes over %d stripes (%.0f Mbps)\n",
		statsStriped.Bytes, statsStriped.Stripes, statsStriped.ThroughputBps/1e6)

	// Third-party transfer: src server sends straight to dst server while
	// this process drives both control channels (how the paper's sessions
	// moved directory trees between DTNs).
	if err := gridftp.ThirdParty(c, r.Login(dst.Addr()), "dataset.bin", "copy.bin"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("third-party transfer: dataset.bin -> dst:copy.bin done")

	// Failure drill: a circuit that stalls after setup (the paper's §IV
	// scenario of VC setup delay and path outages) must surface as a
	// prompt, bounded error instead of a hung transfer. The proxy
	// blackholes the control channel mid-session; the client's deadlines
	// turn the stall into a timeout in well under a second.
	proxy, err := faultnet.NewProxy(src.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer proxy.Close()
	cStall := r.Login(proxy.Addr(),
		gridftp.WithControlTimeout(500*time.Millisecond),
		gridftp.WithDataTimeout(500*time.Millisecond))
	proxy.Stall()
	start := time.Now()
	_, _, err = cStall.Retr("dataset.bin")
	if err == nil {
		log.Fatal("transfer over a stalled path should have failed")
	}
	fmt.Printf("stalled-path RETR failed fast as intended: %v after %v\n",
		err, time.Since(start).Round(time.Millisecond))
	proxy.Resume()

	// The usage packets arrive over UDP like Globus' collection channel.
	r.WaitFor("the collector to hold 4 usage records", func() bool { return len(collector.Records()) >= 4 })
	fmt.Printf("\ncollector received %d usage records:\n", len(collector.Records()))
	for _, r := range collector.Records() {
		fmt.Printf("  %s %s %8d bytes, %d streams, %d stripes, %.0f Mbps\n",
			r.ServerHost, r.Type, r.SizeBytes, r.Streams, r.Stripes, r.ThroughputMbps())
	}
}
