package gridftp

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DirStore is a Store backed by a directory on disk — the configuration a
// production GridFTP server runs with. Object names are slash-separated
// relative paths confined to the root directory.
//
// DirStore implements the full streaming surface a server needs, plus
// its two optional refinements:
//
//   - ReaderAtStore: RETR reads stripes with pread-style ReadObjectAt,
//     one block buffer per connection.
//   - SnapshotStore: SnapshotObject hands the server an open file
//     handle; the write-then-rename discipline means that handle keeps
//     serving its version even while concurrent Puts replace the path.
//   - StreamPutter: STOR flushes contiguous regions into a
//     ".gftp-partial." sidecar file whose on-disk size is exactly the
//     delivered watermark, so after a failed transfer SIZE reports the
//     precise restart offset and FinishPut fsyncs and renames the
//     sealed object into place.
//   - PutAborter: a failed streaming STOR releases the partial's file
//     handle while leaving the watermark bytes on disk for the resume.
type DirStore struct {
	root string

	mu       sync.Mutex
	partials map[string]*dirPartial
}

// dirPartial is one in-flight streaming put: the open sidecar file and
// the next contiguous offset it expects.
type dirPartial struct {
	f      *os.File
	expect int64
}

// NewDirStore opens a directory-backed store rooted at dir, which must
// exist.
func NewDirStore(dir string) (*DirStore, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(abs)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("gridftp: %s is not a directory", dir)
	}
	return &DirStore{root: abs, partials: make(map[string]*dirPartial)}, nil
}

// Root returns the store's root directory.
func (d *DirStore) Root() string { return d.root }

// resolve maps an object name to an on-disk path, rejecting escapes from
// the root (".." traversal, absolute paths).
func (d *DirStore) resolve(name string) (string, error) {
	if name == "" {
		return "", errors.New("gridftp: empty object name")
	}
	if strings.Contains(name, "\x00") {
		return "", errors.New("gridftp: invalid object name")
	}
	clean := filepath.Clean("/" + filepath.FromSlash(name)) // anchor, then re-relativize
	full := filepath.Join(d.root, clean)
	if full != d.root && !strings.HasPrefix(full, d.root+string(filepath.Separator)) {
		return "", fmt.Errorf("gridftp: object name %q escapes store root", name)
	}
	return full, nil
}

// partialPath is the sidecar a streaming put assembles the object in.
// The ".gftp-" prefix keeps it out of List, like Put's temp files.
func partialPath(full string) string {
	return filepath.Join(filepath.Dir(full), ".gftp-partial."+filepath.Base(full))
}

// notFound maps OS-level lookup failures to the store's ErrNotFound:
// both a missing path and a path that resolves to a directory (an
// object namespace has no directory objects — Size already treated it
// that way, and Get/ReadObjectAt/SnapshotObject must agree).
func (d *DirStore) notFound(name string, err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return err
}

// Get implements Store.
func (d *DirStore) Get(name string) ([]byte, error) {
	full, err := d.resolve(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(full)
	if err != nil {
		if info, serr := os.Stat(full); serr == nil && info.IsDir() {
			return nil, fmt.Errorf("%w: %s is a directory", ErrNotFound, name)
		}
		return nil, d.notFound(name, err)
	}
	return data, nil
}

// ReadObjectAt implements ReaderAtStore with a positional read against
// the committed object — no in-RAM copy of the object is ever built.
func (d *DirStore) ReadObjectAt(name string, p []byte, off int64) (int, error) {
	full, err := d.resolve(name)
	if err != nil {
		return 0, err
	}
	f, err := d.openObject(name, full)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(p, off)
}

// SnapshotObject implements SnapshotStore by handing out an open file
// handle: renames replace the directory entry, not the inode, so the
// handle serves exactly the version that was current when the transfer
// started. The returned reader is an io.Closer; the server closes it
// when the transfer ends.
func (d *DirStore) SnapshotObject(name string) (io.ReaderAt, int64, error) {
	full, err := d.resolve(name)
	if err != nil {
		return nil, 0, err
	}
	f, err := d.openObject(name, full)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// openObject opens a committed object for reading, mapping missing
// paths and directories to ErrNotFound.
func (d *DirStore) openObject(name, full string) (*os.File, error) {
	f, err := os.Open(full)
	if err != nil {
		return nil, d.notFound(name, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.IsDir() {
		f.Close()
		return nil, fmt.Errorf("%w: %s is a directory", ErrNotFound, name)
	}
	return f, nil
}

// Put implements Store, creating parent directories as needed.
func (d *DirStore) Put(name string, data []byte) error {
	full, err := d.resolve(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	// Write-then-rename so concurrent readers never see torn objects.
	tmp, err := os.CreateTemp(filepath.Dir(full), ".gftp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), full); err != nil {
		// A failed rename (target is a directory, parent vanished) must
		// not orphan the temp: a session looping failed Puts would
		// otherwise litter the root with .gftp-* files forever.
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// BeginPut implements StreamPutter: it opens the object's partial
// sidecar truncated to base, so from here on the sidecar's on-disk size
// is exactly the contiguous delivered watermark. The restart base is
// validated against the bytes actually on disk — the partial from an
// earlier failed attempt when one exists, otherwise the committed
// object (whose prefix seeds a fresh partial, mirroring MemStore's
// truncate-in-place semantics).
func (d *DirStore) BeginPut(name string, base int64) error {
	full, err := d.resolve(name)
	if err != nil {
		return err
	}
	if base < 0 {
		return fmt.Errorf("gridftp: negative put base %d", base)
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.partials[full]; st != nil {
		// A new attempt supersedes a stranded one; the file survives and
		// is re-opened below.
		st.f.Close()
		delete(d.partials, full)
	}
	pp := partialPath(full)
	existing, err := os.Stat(pp)
	havePartial := err == nil
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f, err := os.OpenFile(pp, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fail := func(ferr error) error {
		f.Close()
		if !havePartial {
			// Never leave a fresh zero-byte sidecar behind: it would
			// shadow the committed object's SIZE with a bogus watermark.
			os.Remove(pp)
		}
		return ferr
	}
	switch {
	case havePartial:
		if existing.Size() < base {
			return fail(fmt.Errorf("gridftp: restart offset %d beyond stored %d bytes", base, existing.Size()))
		}
	case base > 0:
		// No partial: the watermark source is the committed object, whose
		// prefix seeds the fresh sidecar.
		src, oerr := d.openObject(name, full)
		if oerr != nil {
			if errors.Is(oerr, ErrNotFound) {
				oerr = fmt.Errorf("gridftp: restart offset %d beyond stored 0 bytes", base)
			}
			return fail(oerr)
		}
		info, serr := src.Stat()
		if serr == nil && info.Size() < base {
			serr = fmt.Errorf("gridftp: restart offset %d beyond stored %d bytes", base, info.Size())
		}
		if serr == nil {
			_, serr = io.CopyN(f, io.NewSectionReader(src, 0, base), base)
		}
		src.Close()
		if serr != nil {
			return fail(serr)
		}
	}
	if err := f.Truncate(base); err != nil {
		return fail(err)
	}
	d.partials[full] = &dirPartial{f: f, expect: base}
	return nil
}

// PutRegion implements StreamPutter with a positional write into the
// open partial. Regions must arrive in ascending contiguous order from
// the BeginPut base — exactly how the windowed receiver flushes them —
// so the sidecar's size never runs ahead of the delivered watermark.
func (d *DirStore) PutRegion(name string, off int64, p []byte) error {
	full, err := d.resolve(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	st := d.partials[full]
	d.mu.Unlock()
	if st == nil {
		return fmt.Errorf("%w: %s (PutRegion before BeginPut)", ErrNotFound, name)
	}
	if off != st.expect {
		return fmt.Errorf("gridftp: non-contiguous region at %d (have %d bytes)", off, st.expect)
	}
	if _, err := st.f.WriteAt(p, off); err != nil {
		return err
	}
	st.expect = off + int64(len(p))
	return nil
}

// FinishPut implements StreamPutter: fsync the assembled partial and
// rename it into place, so the committed object appears atomically and
// snapshot readers of the previous version keep their inode.
func (d *DirStore) FinishPut(name string, size int64) error {
	full, err := d.resolve(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	st := d.partials[full]
	delete(d.partials, full)
	d.mu.Unlock()
	if st == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if st.expect != size {
		st.f.Close()
		return fmt.Errorf("gridftp: finish size %d, stored %d bytes", size, st.expect)
	}
	if err := st.f.Sync(); err != nil {
		st.f.Close()
		return err
	}
	if err := st.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(partialPath(full), full); err != nil {
		return err
	}
	// Durability of the rename itself: fsync the containing directory
	// (best-effort — the data bytes are already synced).
	if dir, derr := os.Open(filepath.Dir(full)); derr == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// AbortPut implements PutAborter: release the partial's file handle but
// keep its bytes — the sidecar's size IS the delivered watermark the
// resume-aware retry will probe via SIZE and REST to.
func (d *DirStore) AbortPut(name string) error {
	full, err := d.resolve(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	st := d.partials[full]
	delete(d.partials, full)
	d.mu.Unlock()
	if st == nil {
		return nil
	}
	st.f.Sync()
	return st.f.Close()
}

// List implements Store: a recursive walk returning slash-separated
// relative paths under the prefix, sorted. Temporary files from in-flight
// Puts and partial sidecars are skipped, and entries that vanish
// mid-walk (a concurrent Put's temp being renamed away, a partial being
// committed) are ignored rather than aborting the listing.
func (d *DirStore) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(d.root, func(p string, entry os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if entry.IsDir() {
			return nil
		}
		if strings.HasPrefix(entry.Name(), ".gftp-") {
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Size implements Store. A partial sidecar takes precedence over the
// committed object: its on-disk size is the delivered watermark of the
// in-flight (or failed) streaming put, which is exactly what a
// resume-aware retry must read as its REST offset.
func (d *DirStore) Size(name string) (int64, error) {
	full, err := d.resolve(name)
	if err != nil {
		return 0, err
	}
	if info, perr := os.Stat(partialPath(full)); perr == nil && !info.IsDir() {
		return info.Size(), nil
	}
	info, err := os.Stat(full)
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return 0, err
	}
	if info.IsDir() {
		return 0, fmt.Errorf("%w: %s is a directory", ErrNotFound, name)
	}
	return info.Size(), nil
}
