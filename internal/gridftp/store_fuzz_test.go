package gridftp

import (
	"bytes"
	"io"
	"testing"
)

// memPattern is n bytes that differ from their neighbours and from
// another region's, so a misplaced or re-used chunk shows in a compare.
func memPattern(fill byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = fill + byte(i*7)
	}
	return p
}

// FuzzMemStore holds MemStore to a model — the object as one flat
// slice, nil when absent — under arbitrary op streams. After every op,
// Size and Get must match the model, and every snapshot taken so far
// must still read, through ReadAt, exactly the bytes the model held
// when it was taken: no later BeginPut, PutRegion or Put may reach the
// bytes a snapshot pins. ReadObjectAt must return what
// bytes.NewReader(model).ReadAt returns.
//
// Ops are 4 bytes each: [kind, a, b, fill] with kind%8 selecting
// BeginPut(base=(a|b<<8)%1500), a PutRegion of (a|b<<8)*3/2 bytes at
// the watermark (both sides of the 64 KiB chunk floor), a 64-byte
// PutRegion at the arbitrary offset (a|b<<8)%2000, a 1-byte PutRegion
// at the watermark, FinishPut with a correct or perturbed size, Put of
// a|b<<8 bytes, SnapshotObject, or ReadObjectAt at a random offset and
// length.
func FuzzMemStore(f *testing.F) {
	// Clean upload: begin, regions below and above the floor, finish.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 100, 0, 7, 1, 0, 200, 9, 3, 0, 0, 4, 4, 0, 0, 0, 7, 50, 0, 200})
	// Snapshot, then a resumed put truncating inside the tail chunk and
	// appending small regions where the snapshot's bytes were.
	f.Add([]byte{5, 0, 2, 1, 6, 0, 0, 0, 0, 100, 0, 0, 3, 0, 0, 8, 1, 20, 0, 9, 7, 0, 0, 3})
	// Many 1-byte regions sharing one chunk, snapshots between them.
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 1, 6, 0, 0, 0, 3, 0, 0, 2, 6, 0, 0, 0, 3, 0, 0, 3, 0, 1, 0, 0, 3, 0, 0, 4})
	// The PutRegion contract: a region below the watermark is a rewrite
	// a held snapshot could observe, so it is rejected.
	f.Add([]byte{0, 0, 0, 0, 1, 200, 0, 1, 6, 0, 0, 0, 2, 10, 0, 5})
	// Region before any BeginPut, finish of an absent object, snapshot
	// and read of an absent object.
	f.Add([]byte{1, 10, 0, 3, 4, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewMemStore()
		const name = "obj"
		var model []byte // nil: no such object
		type held struct {
			r    io.ReaderAt
			want []byte
		}
		var snaps []held

		check := func(step int, op string, gotErr error, wantOK bool) {
			t.Helper()
			if (gotErr == nil) != wantOK {
				t.Fatalf("step %d %s: err=%v, model wants ok=%v", step, op, gotErr, wantOK)
			}
			n, err := m.Size(name)
			got, gerr := m.Get(name)
			if model == nil {
				if err == nil || gerr == nil {
					t.Fatalf("step %d %s: absent object has Size %d / Get %d bytes", step, op, n, len(got))
				}
			} else if err != nil || n != int64(len(model)) || gerr != nil || !bytes.Equal(got, model) {
				t.Fatalf("step %d %s: Size=%d (%v), Get %d bytes (%v), model %d bytes",
					step, op, n, err, len(got), gerr, len(model))
			}
			for i, s := range snaps {
				// One byte past the end: a full read then io.EOF, the
				// bytes.Reader behaviour the snapshot had before.
				buf := make([]byte, len(s.want)+1)
				k, err := s.r.ReadAt(buf, 0)
				wk, werr := bytes.NewReader(s.want).ReadAt(make([]byte, len(buf)), 0)
				if k != wk || err != werr || !bytes.Equal(buf[:k], s.want) {
					t.Fatalf("step %d %s: snapshot %d reads (%d, %v), model (%d, %v) over %d bytes",
						step, op, i, k, err, wk, werr, len(s.want))
				}
			}
		}

		for step := 0; len(ops) >= 4; step++ {
			kind, a, b, fill := ops[0]%8, ops[1], ops[2], ops[3]
			ops = ops[4:]
			ab := int(a) | int(b)<<8
			switch kind {
			case 0: // BeginPut
				base := int64(ab % 1500)
				wantOK := base <= int64(len(model))
				err := m.BeginPut(name, base)
				if wantOK {
					if model == nil {
						model = []byte{}
					}
					model = model[:base:base]
				}
				check(step, "BeginPut", err, wantOK)
			case 1, 3: // PutRegion at the watermark: sized, or 1 byte
				n := ab * 3 / 2
				if kind == 3 {
					n = 1
				}
				data := memPattern(fill, n)
				err := m.PutRegion(name, int64(len(model)), data)
				wantOK := model != nil
				if wantOK {
					model = append(model[:len(model):len(model)], data...)
				}
				check(step, "PutRegion", err, wantOK)
			case 2: // PutRegion at an arbitrary offset
				off := int64(ab % 2000)
				data := memPattern(fill, 64)
				wantOK := model != nil && off == int64(len(model))
				err := m.PutRegion(name, off, data)
				if wantOK {
					model = append(model[:len(model):len(model)], data...)
				}
				check(step, "PutRegion(off)", err, wantOK)
			case 4: // FinishPut, exact or perturbed size
				size := int64(len(model))
				if b%2 == 1 {
					size += 1 + int64(a)
				}
				check(step, "FinishPut", m.FinishPut(name, size), model != nil && size == int64(len(model)))
			case 5: // Put
				data := memPattern(fill, ab)
				err := m.Put(name, data)
				model = data
				check(step, "Put", err, true)
			case 6: // SnapshotObject, the first eight held to the end
				r, size, err := m.SnapshotObject(name)
				if err == nil && size != int64(len(model)) {
					t.Fatalf("step %d: snapshot size %d, model %d", step, size, len(model))
				}
				if err == nil && len(snaps) < 8 {
					snaps = append(snaps, held{r, append([]byte(nil), model...)})
				}
				check(step, "SnapshotObject", err, model != nil)
			case 7: // ReadObjectAt at a random offset and length
				off := int64(ab) % (int64(len(model)) + 100)
				buf := make([]byte, 1+int(fill)*1024)
				n, err := m.ReadObjectAt(name, buf, off)
				if model == nil {
					check(step, "ReadObjectAt", err, false)
					continue
				}
				want := make([]byte, len(buf))
				wn, werr := bytes.NewReader(model).ReadAt(want, off)
				if n != wn || err != werr || !bytes.Equal(buf[:n], want[:wn]) {
					t.Fatalf("step %d: ReadObjectAt(%d, %d) = (%d, %v), model (%d, %v)",
						step, off, len(buf), n, err, wn, werr)
				}
				check(step, "ReadObjectAt", nil, true)
			}
		}
	})
}
