package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendT(t *testing.T, l *Log, rec Record) {
	t.Helper()
	if err := l.Append(rec); err != nil {
		t.Fatalf("Append(%+v): %v", rec, err)
	}
}

func jobRec(id string) Record {
	req, _ := json.Marshal(map[string]any{"kind": "solve", "algorithm": "cd", "n": 64, "seed": 1})
	return Record{T: RecordJob, ID: id, Time: time.Unix(1700000000, 0).UTC(), Req: req}
}

func stateRec(id, state string) Record {
	return Record{T: RecordState, ID: id, Time: time.Unix(1700000100, 0).UTC(), State: state}
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendT(t, l, jobRec("j000001"))
	appendT(t, l, jobRec("j000002"))
	appendT(t, l, stateRec("j000001", "running"))
	result := json.RawMessage(`{"solve":{"algorithm":"cd"}}`)
	appendT(t, l, Record{T: RecordState, ID: "j000001", Time: time.Now().UTC(), State: "done", Result: result})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{})
	jobs := l2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != "j000001" || jobs[1].ID != "j000002" {
		t.Errorf("replay order = %s, %s", jobs[0].ID, jobs[1].ID)
	}
	if jobs[0].State != "done" || string(jobs[0].Result) != string(result) {
		t.Errorf("j000001 = state %q result %s", jobs[0].State, jobs[0].Result)
	}
	if jobs[1].State != "queued" {
		t.Errorf("j000002 state = %q, want queued (job record with no transition)", jobs[1].State)
	}
	if l2.TornTail() {
		t.Error("clean log reported a torn tail")
	}
}

// TestTruncatedFinalRecordTolerated covers the torn-write crash edge: a
// record whose bytes were only partially written before SIGKILL must be
// discarded on replay, and the log must keep working afterwards.
func TestTruncatedFinalRecordTolerated(t *testing.T) {
	for _, cut := range []struct {
		name string
		keep func(total, lastStart int) int
	}{
		{"mid-payload", func(total, lastStart int) int { return total - 3 }},
		{"mid-header", func(total, lastStart int) int { return lastStart + 5 }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir, Options{})
			appendT(t, l, jobRec("j000001"))
			before := l.size
			appendT(t, l, jobRec("j000002"))
			seg := l.segmentPath(l.seq)
			total := int(l.size)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, int64(cut.keep(total, int(before)))); err != nil {
				t.Fatal(err)
			}

			l2 := openT(t, dir, Options{})
			if !l2.TornTail() {
				t.Error("torn tail not reported")
			}
			jobs := l2.Jobs()
			if len(jobs) != 1 || jobs[0].ID != "j000001" {
				t.Fatalf("replay after torn tail: %d jobs, want only j000001", len(jobs))
			}
			// The log must accept appends again and replay cleanly.
			appendT(t, l2, jobRec("j000003"))
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			l3 := openT(t, dir, Options{})
			if jobs := l3.Jobs(); len(jobs) != 2 || l3.TornTail() {
				t.Fatalf("post-repair replay: %d jobs, torn=%v; want 2 jobs, clean", len(jobs), l3.TornTail())
			}
		})
	}
}

// TestChecksumMismatchRejected covers the corruption crash edge: a
// complete record whose payload does not match its checksum must fail
// Open with an error naming the segment and offset — never be skipped.
func TestChecksumMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendT(t, l, jobRec("j000001"))
	start := l.size
	appendT(t, l, jobRec("j000002"))
	appendT(t, l, stateRec("j000002", "running"))
	seg := l.segmentPath(l.seq)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record (not the final one, so
	// torn-tail tolerance cannot kick in — and it wouldn't anyway: the
	// record is complete).
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[start+recHdrSize+4] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("Open succeeded on a corrupt WAL")
	}
	for _, want := range []string{"checksum mismatch", seg, fmt.Sprintf("offset %d", start)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestCorruptFinalRecordChecksumRejected pins the boundary between the
// two crash edges: even at the tail, a record that is complete but fails
// its checksum is corruption, not a torn write.
func TestCorruptFinalRecordChecksumRejected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendT(t, l, jobRec("j000001"))
	start := l.size
	appendT(t, l, jobRec("j000002"))
	seg := l.segmentPath(l.seq)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[start+recHdrSize] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Open = %v, want checksum mismatch error", err)
	}
}

// writeSegment frames recs with the production wire format into path.
func writeSegment(t *testing.T, path string, recs ...Record) {
	t.Helper()
	if err := os.WriteFile(path, frames(recs...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// frames returns recs framed with the production wire format.
func frames(recs ...Record) []byte {
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			panic(err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
		buf = append(buf, payload...)
	}
	return buf
}

func TestTruncationInNonFinalSegmentRejected(t *testing.T) {
	// A crash can only tear the tail of the log, i.e. the final segment;
	// a short record in an earlier segment means lost data. Fabricate a
	// two-segment log (rotation normally compacts to one) and damage the
	// first.
	dir := t.TempDir()
	seg1 := filepath.Join(dir, "wal-00000001.log")
	seg2 := filepath.Join(dir, "wal-00000002.log")
	writeSegment(t, seg1, jobRec("j000001"))
	writeSegment(t, seg2, jobRec("j000002"))
	st, err := os.Stat(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg1, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "non-final segment") {
		t.Fatalf("Open = %v, want non-final truncation error", err)
	}
}

// TestRotationCompactsTerminalJobs exercises segment rotation: live jobs
// are carried into the fresh segment (with their current state), older
// segments are deleted, and terminal jobs drop out of the log.
func TestRotationCompactsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 512})
	for i := 1; i <= 8; i++ {
		id := fmt.Sprintf("j%06d", i)
		appendT(t, l, jobRec(id))
		if i%2 == 0 {
			appendT(t, l, stateRec(id, "running"))
			appendT(t, l, Record{T: RecordState, ID: id, Time: time.Now().UTC(), State: "done",
				Result: json.RawMessage(`{"solve":{}}`)})
		}
	}
	// Force enough appends that at least one rotation happened.
	segs, _ := l.listSegments()
	if len(segs) != 1 {
		t.Fatalf("after compaction %d segments remain, want 1", len(segs))
	}
	if l.seq < 2 {
		t.Fatalf("no rotation happened (seq %d); lower SegmentBytes", l.seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{})
	states := map[string]string{}
	for _, j := range l2.Jobs() {
		states[j.ID] = j.State
	}
	// Every odd job (never finished) must survive compaction as queued;
	// even jobs may or may not survive depending on where rotation fell,
	// but any survivor must still be done.
	for i := 1; i <= 8; i += 2 {
		id := fmt.Sprintf("j%06d", i)
		if states[id] != "queued" {
			t.Errorf("%s state = %q, want queued to survive compaction", id, states[id])
		}
	}
	for i := 2; i <= 8; i += 2 {
		id := fmt.Sprintf("j%06d", i)
		if st, ok := states[id]; ok && st != "done" {
			t.Errorf("%s state = %q, want done", id, st)
		}
	}
}

func TestStateForUnknownJobIgnored(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendT(t, l, stateRec("j999999", "running")) // e.g. leftover after compaction
	appendT(t, l, jobRec("j000001"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	if jobs := l2.Jobs(); len(jobs) != 1 || jobs[0].ID != "j000001" {
		t.Fatalf("replay = %d jobs, want only j000001", len(jobs))
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(jobRec("j000001")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

// TestRecordFramesAreWellFormed sanity-checks the wire framing directly:
// length prefix, CRC-32C, JSON payload.
func TestRecordFramesAreWellFormed(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	rec := jobRec("j000001")
	appendT(t, l, rec)
	seg := l.segmentPath(l.seq)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < recHdrSize {
		t.Fatalf("segment only %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if int(recHdrSize+n) != len(data) {
		t.Fatalf("length prefix %d + header ≠ file size %d", n, len(data))
	}
	var decoded Record
	if err := json.Unmarshal(data[recHdrSize:], &decoded); err != nil {
		t.Fatalf("payload is not JSON: %v", err)
	}
	if decoded.ID != rec.ID || decoded.T != RecordJob {
		t.Errorf("decoded record = %+v", decoded)
	}
}
