// Streamresume: demonstrate resume-aware retries and the streaming
// data plane. A fault injector resets the destination's first data
// connection 60% of the way through a 32 MiB transfer; the manager
// retries. Run A restarts from byte zero (the pre-fix behaviour), run
// B resumes from the destination's delivered watermark, and run C
// relays the object through the process's own bounded-memory windowed
// data plane with exact wire accounting. Result.WireBytes exposes what
// Result.Bytes hides: how much payload crossed the wire more than
// once.
//
//	go run ./examples/streamresume
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/xferman"
)

const (
	size   = 32 << 20
	window = 256 << 10
	block  = 32 << 10
)

func main() {
	r := rig.Main()
	defer r.Close()
	src := r.Server(gridftp.Config{BlockSize: block}, rig.Objects{"dataset.bin": rig.Payload(42, size)})

	fmt.Printf("object: %d bytes, fault: connection reset after 60%% of the wire\n\n", size)
	restart := run(r, src, xferman.Job{NoResume: true, SizeHint: size})
	resume := run(r, src, xferman.Job{})
	stream := run(r, src, xferman.Job{Stream: true, WindowBytes: window})

	report("A  restart from zero", restart)
	report("B  resume at watermark", resume)
	report("C  streaming relay, resumed", stream)
	fmt.Printf("\nresume saved %d redundant bytes over restart (%.0f%% of the object)\n",
		restart.WireBytes-resume.WireBytes,
		100*float64(restart.WireBytes-resume.WireBytes)/float64(size))
}

// run executes one faulted transfer into a fresh destination server and
// returns the manager's result. Each run gets its own fault tracker so
// exactly one reset fires per scenario.
func run(r *rig.Rig, src *gridftp.Server, tmpl xferman.Job) xferman.Result {
	dst := r.Server(gridftp.Config{
		WindowSize: window, BlockSize: block,
		DataTimeout: 500 * time.Millisecond, AcceptTimeout: 300 * time.Millisecond,
		DataListen: faultnet.ResetFirstConn(size * 6 / 10).Listen,
	})

	m, err := xferman.New(1)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	job := tmpl
	job.Src = xferman.Endpoint{Addr: src.Addr(), User: "anonymous", Pass: "demo@"}
	job.Dst = xferman.Endpoint{Addr: dst.Addr(), User: "anonymous", Pass: "demo@"}
	job.SrcName, job.DstName = "dataset.bin", "copy.bin"
	job.MaxAttempts, job.Verify = 4, true
	job.RetryBackoff, job.Timeout = 50*time.Millisecond, 10*time.Second
	ctx := context.Background()
	id, err := m.Submit(ctx, job)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Wait(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	if res.Status != xferman.Succeeded {
		log.Fatalf("transfer failed after %d attempts: %s", res.Attempts, res.Err)
	}
	return res
}

func report(label string, res xferman.Result) {
	fmt.Printf("%-28s attempts=%d delivered=%d wire=%d redundant=%d crc32=%s\n",
		label, res.Attempts, res.Bytes, res.WireBytes, res.WireBytes-res.Bytes, res.Checksum)
}
