package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzWALReplay opens a log whose segment holds arbitrary bytes, once as
// the final segment and once as a non-final one (followed by an empty
// final segment). Open must never panic. As the final segment, a failed
// Open leaves the bytes as they were, and a successful one leaves a
// prefix of them: shorter exactly when it reports a torn tail, and
// replaying that prefix again is clean and yields the same jobs. As a
// non-final segment the bytes are never truncated, and Open succeeds
// exactly when they replayed as the final segment without a torn tail.
func FuzzWALReplay(f *testing.F) {
	done := stateRec("j000001", "done")
	done.Result = []byte(`{"solve":{"trials":1}}`)
	valid := frames(jobRec("j000001"), jobRec("j000002"), done, stateRec("j000003", "running"))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)-len(frames(stateRec("j000003", "running")))+3])
	flipped := bytes.Clone(valid)
	flipped[recHdrSize+2] ^= 1
	f.Add(flipped)
	f.Add(frames(Record{T: "bogus", ID: "x", Time: time.Unix(0, 0).UTC()}))
	f.Add(append(frames(jobRec("j000001")), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\x00{}"))
	// Iterations run one at a time in each fuzzing process, so they share
	// two directories, emptied first.
	root := f.TempDir()
	fresh := func(t *testing.T, name string) string {
		dir := filepath.Join(root, name)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := fresh(t, "final")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "wal-00000001.log")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		left, rerr := os.ReadFile(seg)
		if rerr != nil {
			t.Fatal(rerr)
		}
		clean := false
		if err != nil {
			if !bytes.Equal(left, data) {
				t.Fatalf("failed Open (%v) changed the final segment from %d to %d bytes", err, len(data), len(left))
			}
		} else {
			torn, jobs := l.TornTail(), l.Jobs()
			l.Close()
			if !bytes.HasPrefix(data, left) || (len(left) < len(data)) != torn {
				t.Fatalf("Open left %d of %d bytes with torn tail %v", len(left), len(data), torn)
			}
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("replaying what Open left: %v", err)
			}
			if l.TornTail() || !reflect.DeepEqual(l.Jobs(), jobs) {
				t.Fatalf("second replay: torn tail %v, jobs %v, first replay %v", l.TornTail(), l.Jobs(), jobs)
			}
			l.Close()
			clean = !torn
		}

		dir = fresh(t, "nonfinal")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		seg = filepath.Join(dir, "wal-00000001.log")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-00000002.log"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, Options{})
		if err == nil {
			l.Close()
		}
		if left, rerr := os.ReadFile(seg); rerr != nil || !bytes.Equal(left, data) {
			t.Fatalf("Open changed a non-final segment from %d to %d bytes (%v)", len(data), len(left), rerr)
		}
		if (err == nil) != clean {
			t.Fatalf("non-final segment: Open error %v, but as the final segment it replayed cleanly: %v", err, clean)
		}
	})
}
