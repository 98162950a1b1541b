package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"factorwindows/internal/stream"
	"factorwindows/internal/wire"
)

func mkEvents(base, n int) []stream.Event {
	evs := make([]stream.Event, n)
	for i := range evs {
		evs[i] = stream.Event{
			Time:  int64(base + i),
			Key:   uint64(base*31 + i),
			Value: float64(base) + float64(i)/8,
		}
	}
	return evs
}

func openLog(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendWait(t *testing.T, l *Log, evs []stream.Event) *Commit {
	t.Helper()
	c, err := l.Append(evs)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return c
}

// replayAll collects every record at or after from as decoded batches
// (events) or control payload copies.
func replayAll(t *testing.T, l *Log, from int64) (offsets []int64, batches [][]stream.Event, controls []string) {
	t.Helper()
	err := l.Replay(from, func(rec Record) error {
		offsets = append(offsets, rec.Offset)
		switch rec.Frame.Kind {
		case wire.KindEvents:
			batches = append(batches, rec.Frame.AppendEvents(nil))
			controls = append(controls, "")
		case wire.KindControl:
			batches = append(batches, nil)
			controls = append(controls, string(rec.Frame.Control()))
		default:
			return fmt.Errorf("unexpected kind %d", rec.Frame.Kind)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return offsets, batches, controls
}

// TestEmptyAppendIsOneRecord: a batch of no events still stages, writes
// and replays as one record, so record offsets keep counting Appends.
func TestEmptyAppendIsOneRecord(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir})
	batches := [][]stream.Event{nil, mkEvents(3, 2), {}, mkEvents(5, 1)}
	for i, b := range batches {
		if c := appendWait(t, l, b); c.Offset() != int64(i) {
			t.Fatalf("append %d: offset %d", i, c.Offset())
		}
	}
	l.Close(true)
	l = openLog(t, Options{Dir: dir})
	defer l.Close(false)
	offsets, got, _ := replayAll(t, l, 0)
	if len(offsets) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(offsets), len(batches))
	}
	for i, want := range batches {
		if offsets[i] != int64(i) || !slices.Equal(got[i], want) {
			t.Fatalf("record %d: offset %d events %v, want %v", i, offsets[i], got[i], want)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir})

	var want [][]stream.Event
	for i := 0; i < 10; i++ {
		evs := mkEvents(i*100, 5+i)
		appendWait(t, l, evs)
		want = append(want, evs)
	}
	c, err := l.AppendControl([]byte(`{"op":"register","id":"q1"}`))
	if err != nil {
		t.Fatalf("AppendControl: %v", err)
	}
	if durable, err := c.Wait(); err != nil || !durable {
		t.Fatalf("control commit: durable=%t err=%v", durable, err)
	}
	if got := c.Offset(); got != 10 {
		t.Fatalf("control offset = %d, want 10", got)
	}
	if err := l.Close(false); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l = openLog(t, Options{Dir: dir})
	defer l.Close(false)
	if got := l.NextOffset(); got != 11 {
		t.Fatalf("NextOffset after reopen = %d, want 11", got)
	}
	offsets, batches, controls := replayAll(t, l, 0)
	if len(offsets) != 11 {
		t.Fatalf("replayed %d records, want 11", len(offsets))
	}
	for i, off := range offsets {
		if off != int64(i) {
			t.Fatalf("offset[%d] = %d", i, off)
		}
	}
	for i, evs := range want {
		if !reflect.DeepEqual(batches[i], evs) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
	if controls[10] != `{"op":"register","id":"q1"}` {
		t.Fatalf("control payload = %q", controls[10])
	}

	// Replaying from a mid-log offset skips the covered prefix.
	offsets, _, _ = replayAll(t, l, 7)
	if len(offsets) != 4 || offsets[0] != 7 {
		t.Fatalf("replay from 7: offsets %v", offsets)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir, Fsync: FsyncEvery})
	defer l.Close(false)

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c, err := l.Append(mkEvents(w*1000+i, 3))
				if err != nil {
					errs <- err
					return
				}
				durable, err := c.Wait()
				if err != nil {
					errs <- err
					return
				}
				if !durable {
					errs <- fmt.Errorf("FsyncEvery acked durable=false")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appended != writers*perWriter {
		t.Fatalf("Appended = %d, want %d", st.Appended, writers*perWriter)
	}
	if st.Fsyncs < 1 || st.Fsyncs > st.Appended {
		t.Fatalf("Fsyncs = %d out of range (0, %d]", st.Fsyncs, st.Appended)
	}
	offsets, _, _ := replayAll(t, l, 0)
	if len(offsets) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(offsets), writers*perWriter)
	}
}

func TestRotationSealAndVerify(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every batch rotates the segment.
	l := openLog(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 6; i++ {
		appendWait(t, l, mkEvents(i*10, 4))
	}
	if err := l.Close(false); err != nil {
		t.Fatalf("Close: %v", err)
	}

	names, err := OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if _, ok := parseBase(n, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		}
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}

	// Clean reopen verifies the whole chain and replays everything.
	l = openLog(t, Options{Dir: dir})
	offsets, _, _ := replayAll(t, l, 0)
	if len(offsets) != 6 {
		t.Fatalf("replayed %d, want 6", len(offsets))
	}
	l.Close(false)

	// Flipping one byte of a sealed segment must be detected.
	corrupt := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	orig := data[len(data)/2]
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("tampered segment: err = %v, want ErrCorruptSegment", err)
	}
	data[len(data)/2] = orig
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Deleting a sealed segment must be detected.
	if err := os.Rename(corrupt, corrupt+".hidden"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("missing segment: err = %v, want ErrCorruptSegment", err)
	}
	if err := os.Rename(corrupt+".hidden", corrupt); err != nil {
		t.Fatal(err)
	}

	// A segment file the manifest never heard of must be detected.
	stray := filepath.Join(dir, segFileName(1<<40))
	if err := os.WriteFile(stray, []byte("xx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("stray segment: err = %v, want ErrCorruptManifest", err)
	}
	os.Remove(stray)

	// Editing a mid-file manifest line breaks the hash chain.
	mpath := filepath.Join(dir, manifestName)
	mdata, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes0xReplaceFirst(mdata, `"op":"seal"`, `"op":"SEAL"`)
	if err := os.WriteFile(mpath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("tampered manifest: err = %v, want ErrCorruptManifest", err)
	}
}

// bytes0xReplaceFirst replaces the first occurrence of old with new
// (same length) in a copy of b.
func bytes0xReplaceFirst(b []byte, old, new string) []byte {
	out := append([]byte(nil), b...)
	for i := 0; i+len(old) <= len(out); i++ {
		if string(out[i:i+len(old)]) == old {
			copy(out[i:], new)
			return out
		}
	}
	return out
}

func TestTornTails(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		l := openLog(t, Options{Dir: dir})
		for i := 0; i < 3; i++ {
			appendWait(t, l, mkEvents(i*10, 4))
		}
		if err := l.Close(false); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	activeSeg := func(t *testing.T, dir string) string {
		names, err := OS{}.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if _, ok := parseBase(n, segPrefix, segSuffix); ok {
				return filepath.Join(dir, n)
			}
		}
		t.Fatal("no segment file")
		return ""
	}
	appendBytes := func(t *testing.T, path string, b []byte) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	t.Run("partial-record", func(t *testing.T) {
		dir := build(t)
		// A prefix of a valid frame: exactly what a crash mid-append leaves.
		frame := wire.AppendEventFrame(nil, mkEvents(99, 4))
		appendBytes(t, activeSeg(t, dir), frame[:len(frame)-7])
		l := openLog(t, Options{Dir: dir})
		defer l.Close(false)
		if got := l.NextOffset(); got != 3 {
			t.Fatalf("NextOffset = %d, want 3 (torn tail truncated)", got)
		}
		offsets, _, _ := replayAll(t, l, 0)
		if len(offsets) != 3 {
			t.Fatalf("replayed %d, want 3", len(offsets))
		}
	})

	t.Run("zero-fill", func(t *testing.T) {
		dir := build(t)
		appendBytes(t, activeSeg(t, dir), make([]byte, 100))
		l := openLog(t, Options{Dir: dir})
		defer l.Close(false)
		if got := l.NextOffset(); got != 3 {
			t.Fatalf("NextOffset = %d, want 3 (zero tail truncated)", got)
		}
	})

	t.Run("garbage-is-corruption", func(t *testing.T) {
		dir := build(t)
		// A plausible length prefix followed by non-frame bytes is not a
		// torn append — refuse to open rather than guess.
		garbage := []byte{24, 0, 0, 0, 'X', 'X', 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
		appendBytes(t, activeSeg(t, dir), garbage)
		if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("garbage tail: err = %v, want ErrCorruptSegment", err)
		}
	})

	t.Run("torn-manifest-line", func(t *testing.T) {
		dir := t.TempDir()
		l := openLog(t, Options{Dir: dir, SegmentBytes: 64})
		for i := 0; i < 4; i++ {
			appendWait(t, l, mkEvents(i*10, 4))
		}
		if err := l.Close(false); err != nil {
			t.Fatal(err)
		}
		// Chop the final manifest line mid-JSON: a crash during a seal.
		mpath := filepath.Join(dir, manifestName)
		data, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpath, data[:len(data)-10], 0o644); err != nil {
			t.Fatal(err)
		}
		// The chopped entry's segment is now unaccounted for; recovery
		// truncates the torn line but must then flag the stray file.
		if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("after torn manifest: err = %v, want ErrCorruptManifest", err)
		}
	})
}

func TestMinOffsetAlignment(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		appendWait(t, l, mkEvents(i, 2))
	}
	if err := l.Close(false); err != nil {
		t.Fatal(err)
	}

	// A snapshot at offset 20 outruns the surviving log (possible under
	// -fsync off): numbering must resume at 20, never reusing covered
	// offsets.
	l = openLog(t, Options{Dir: dir, MinOffset: 20})
	if got := l.NextOffset(); got != 20 {
		t.Fatalf("NextOffset = %d, want 20", got)
	}
	offsets, _, _ := replayAll(t, l, 20)
	if len(offsets) != 0 {
		t.Fatalf("replay from 20 returned %v", offsets)
	}
	c := appendWait(t, l, mkEvents(100, 2))
	if c.Offset() != 20 {
		t.Fatalf("first append got offset %d, want 20", c.Offset())
	}
	if err := l.Close(false); err != nil {
		t.Fatal(err)
	}

	// The realigned log must survive a clean reopen (old records sealed
	// behind the gap, new ones replayable).
	l = openLog(t, Options{Dir: dir})
	defer l.Close(false)
	offsets, _, _ = replayAll(t, l, 20)
	if len(offsets) != 1 || offsets[0] != 20 {
		t.Fatalf("replay after realign: %v", offsets)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 6; i++ {
		appendWait(t, l, mkEvents(i*10, 4))
	}
	if err := l.TruncateBefore(4); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	offsets, _, _ := replayAll(t, l, 4)
	if len(offsets) != 2 || offsets[0] != 4 {
		t.Fatalf("replay after truncate: %v", offsets)
	}
	if err := l.Close(true); err != nil {
		t.Fatal(err)
	}

	// The drop entries keep the chain verifiable with the bytes gone.
	l = openLog(t, Options{Dir: dir})
	defer l.Close(false)
	offsets, _, _ = replayAll(t, l, 4)
	if len(offsets) != 2 || offsets[0] != 4 || offsets[1] != 5 {
		t.Fatalf("replay after reopen: %v", offsets)
	}
}

func TestSnapshots(t *testing.T) {
	dir := t.TempDir()
	// No directory / no snapshots: clean zero state.
	if off, data, err := LatestSnapshot(nil, filepath.Join(dir, "missing")); off != 0 || data != nil || err != nil {
		t.Fatalf("empty LatestSnapshot = %d %v %v", off, data, err)
	}

	for _, off := range []int64{5, 17, 9} {
		payload := []byte(fmt.Sprintf("state-at-%d", off))
		if err := WriteSnapshot(nil, dir, off, payload); err != nil {
			t.Fatalf("WriteSnapshot(%d): %v", off, err)
		}
	}
	off, data, err := LatestSnapshot(nil, dir)
	if err != nil || off != 17 || string(data) != "state-at-17" {
		t.Fatalf("LatestSnapshot = %d %q %v", off, data, err)
	}

	if err := PruneSnapshots(nil, dir, 2); err != nil {
		t.Fatalf("PruneSnapshots: %v", err)
	}
	names, _ := OS{}.ReadDir(dir)
	if len(names) != 2 {
		t.Fatalf("after prune: %v", names)
	}

	// A flipped payload byte fails the checksum — reported, not skipped.
	path := filepath.Join(dir, snapFileName(17))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-40] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LatestSnapshot(nil, dir); err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	}
}

func TestSnapshotRenameFailure(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(nil, dir, 3, []byte("good")); err != nil {
		t.Fatal(err)
	}
	ffs := newFaultFS(OS{})
	ffs.failRename = true
	if err := WriteSnapshot(ffs, dir, 9, []byte("never-lands")); err == nil {
		t.Fatal("WriteSnapshot succeeded through a failed rename")
	}
	// The failed write must not disturb the previous snapshot, and its
	// temp file must not be mistaken for a snapshot.
	off, data, err := LatestSnapshot(nil, dir)
	if err != nil || off != 3 || string(data) != "good" {
		t.Fatalf("LatestSnapshot after failed write = %d %q %v", off, data, err)
	}
}

func TestAppendFailureFailStops(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS(OS{})
	l := openLog(t, Options{Dir: dir, FS: ffs})
	appendWait(t, l, mkEvents(0, 2))

	ffs.mu.Lock()
	ffs.failWrites = true
	ffs.mu.Unlock()
	c, err := l.Append(mkEvents(10, 2))
	if err != nil {
		t.Fatalf("Append (staging) should not fail: %v", err)
	}
	if _, err := c.Wait(); !errors.Is(err, errInjected) {
		t.Fatalf("commit after write fault: err = %v", err)
	}
	// The log is fail-stopped: later appends are rejected outright.
	if _, err := l.Append(mkEvents(20, 2)); err == nil {
		t.Fatal("Append accepted on a fail-stopped log")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil on a fail-stopped log")
	}
	l.Close(false)

	// The record whose commit failed must not replay after recovery.
	l2 := openLog(t, Options{Dir: dir})
	defer l2.Close(false)
	offsets, _, _ := replayAll(t, l2, 0)
	if len(offsets) != 1 {
		t.Fatalf("replayed %d records, want only the acked one", len(offsets))
	}
}

func TestSyncFailureFailStops(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS(OS{})
	l := openLog(t, Options{Dir: dir, Fsync: FsyncEvery, FS: ffs})
	appendWait(t, l, mkEvents(0, 2))

	ffs.mu.Lock()
	ffs.failSync = true
	ffs.mu.Unlock()
	c, err := l.Append(mkEvents(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if durable, err := c.Wait(); err == nil || durable {
		t.Fatalf("commit after sync fault: durable=%t err=%v", durable, err)
	}
	if _, err := l.Append(mkEvents(20, 2)); err == nil {
		t.Fatal("Append accepted after failed fsync")
	}
	l.Close(false)
}

// TestCrashPointProperty is the core recovery property: crash the
// filesystem at an arbitrary byte offset mid-append, reopen, and the
// surviving log must be exactly a prefix of the appended batches that
// includes every batch acked durable — and it must replay cleanly, with
// the torn tail cut, never an error.
func TestCrashPointProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ffs := newFaultFS(OS{})
			ffs.setBudget(int64(rng.Intn(4000)))
			l := openLog(t, Options{Dir: dir, Fsync: FsyncEvery, SegmentBytes: 512, FS: ffs})

			var want [][]stream.Event
			durableThrough := -1
			for i := 0; i < 40; i++ {
				evs := mkEvents(i*50, 1+rng.Intn(8))
				c, err := l.Append(evs)
				if err != nil {
					break // fail-stopped by an earlier fault
				}
				want = append(want, evs)
				durable, err := c.Wait()
				if err != nil {
					break
				}
				if durable {
					durableThrough = i
				}
			}
			l.Close(false)

			// Recover with a healthy filesystem.
			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			defer l2.Close(false)
			offsets, batches, _ := replayAll(t, l2, 0)
			if len(offsets) < durableThrough+1 {
				t.Fatalf("replayed %d batches, but %d were acked durable", len(offsets), durableThrough+1)
			}
			if len(offsets) > len(want) {
				t.Fatalf("replayed %d batches, only %d were ever appended", len(offsets), len(want))
			}
			for i := range offsets {
				if offsets[i] != int64(i) {
					t.Fatalf("offset[%d] = %d", i, offsets[i])
				}
				if !reflect.DeepEqual(batches[i], want[i]) {
					t.Fatalf("batch %d differs from what was appended", i)
				}
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := map[string]FsyncPolicy{"every": FsyncEvery, "": FsyncEvery, "interval": FsyncInterval, "off": FsyncOff}
	for in, want := range cases {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

func TestManifestChainIsDeterministic(t *testing.T) {
	e := manifestEntry{Seq: 1, Op: "seal", File: "seg-0000000000000000.wal", Base: 0, Records: 3, Bytes: 100, Hash: "ab"}
	c1 := chainHash(nil, e)
	c2 := chainHash(nil, e)
	if c1 != c2 {
		t.Fatal("chainHash not deterministic")
	}
	e2 := e
	e2.Records = 4
	if chainHash(nil, e2) == c1 {
		t.Fatal("chainHash ignores entry contents")
	}
	// Chain must depend on the previous link too.
	prev, _ := json.Marshal(e)
	if chainHash(prev, e) == c1 {
		t.Fatal("chainHash ignores the previous chain value")
	}
}
