// Liveqos: demonstrate rate enforcement on the live data plane — the
// missing half of a bandwidth reservation. Eight unshaped concurrent
// transfers fight for loopback bandwidth and finish at wildly different
// rates; the same eight shaped to a per-transfer rate (client token
// buckets plus a server-side SITE RATE session cap) finish in lockstep,
// and a background-class bulk sync is held to a trickle while an
// interactive job runs free.
//
//	go run ./examples/liveqos
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"sync"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/xferman"
)

const (
	objSize = 4 << 20
	nConc   = 8
	rate    = 200e6 // 25 MB/s per transfer when shaped
)

func main() {
	r := rig.Main()
	defer r.Close()
	srv := r.Server(gridftp.Config{}, rig.Objects{"dataset.bin": rig.Payload(11, objSize)})

	for _, arm := range []struct {
		name string
		opts []gridftp.Option
	}{
		{"unshaped", nil},
		{"shaped", []gridftp.Option{gridftp.WithRate(rate)}},
	} {
		durs := make([]time.Duration, nConc)
		var wg sync.WaitGroup
		for i := 0; i < nConc; i++ {
			c := r.Login(srv.Addr())
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start := time.Now()
				if _, err := c.RetrTo(context.Background(), "dataset.bin", io.Discard, arm.opts...); err != nil {
					log.Fatal(err)
				}
				durs[i] = time.Since(start)
			}(i)
		}
		wg.Wait()
		mean, cv := spread(durs)
		fmt.Printf("%-9s %d x %d MiB: mean %8v  spread (CV) %.2f\n",
			arm.name, nConc, objSize>>20, mean.Round(time.Millisecond), cv)
	}

	// QoS classes through the managed-transfer service: a background
	// mirror sync is capped so the interactive fetch is not starved.
	dst := r.Server(gridftp.Config{})
	m, err := xferman.New(2, xferman.WithClassRate(xferman.ClassBackground, 80e6))
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	for _, class := range []xferman.Class{xferman.ClassInteractive, xferman.ClassBackground} {
		id, err := m.Submit(context.Background(), xferman.Job{
			Src:     xferman.Endpoint{Addr: srv.Addr(), User: "anonymous", Pass: "demo@"},
			Dst:     xferman.Endpoint{Addr: dst.Addr(), User: "anonymous", Pass: "demo@"},
			SrcName: "dataset.bin", DstName: "mirror-" + string(class) + ".bin",
			Stream: true,
			Class:  class,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := m.Wait(context.Background(), id)
		if err != nil {
			log.Fatal(err)
		}
		shaped := "unshaped"
		if res.ShapedRateBps > 0 {
			shaped = fmt.Sprintf("shaped to %d bps", res.ShapedRateBps)
		}
		fmt.Printf("%-12s job: %v, %s\n", class, res.Duration.Round(time.Millisecond), shaped)
	}
}

// spread returns the mean and coefficient of variation of durations.
func spread(durs []time.Duration) (time.Duration, float64) {
	var sum float64
	for _, d := range durs {
		sum += d.Seconds()
	}
	mean := sum / float64(len(durs))
	var ss float64
	for _, d := range durs {
		ss += (d.Seconds() - mean) * (d.Seconds() - mean)
	}
	sd := math.Sqrt(ss / float64(len(durs)))
	return time.Duration(mean * float64(time.Second)), sd / mean
}
