package pregel

import (
	"encoding/binary"
	"fmt"
	"os"
)

// spillStore is the governor's temp-file segment store for inboxes that
// no longer fit the memory budget. The file is created lazily, unlinked
// immediately (the OS reclaims it when the run exits, even on a crash),
// and written append-only: each spill event claims a contiguous segment
// of records, stored as their words in little-endian order — the same
// recWordBytes per word as in RAM, so a window of records can be read
// back from any word offset with a single ReadAt. Reads use ReadAt, which
// is safe for concurrent use by stealing executors.
type spillStore struct {
	f    *os.File
	size int64 // bytes written so far (next segment offset)
}

// open lazily creates the backing temp file.
func (s *spillStore) open() error {
	if s.f != nil {
		return nil
	}
	f, err := os.CreateTemp("", "gmpregel-spill-*")
	if err != nil {
		return fmt.Errorf("pregel: cannot create spill file: %w", err)
	}
	// Unlink immediately: the fd keeps the segments alive and the file
	// can never outlive the process.
	_ = os.Remove(f.Name())
	s.f = f
	return nil
}

func (s *spillStore) close() {
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
	s.size = 0
}

// writeSegment appends words as one contiguous segment and returns its
// byte offset. The encoding round-trips bit-identically: every word is
// stored raw.
func (s *spillStore) writeSegment(words []uint64, scratch []byte) (off int64, buf []byte, err error) {
	if err := s.open(); err != nil {
		return 0, scratch, err
	}
	need := len(words) * recWordBytes
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	buf = scratch[:need]
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*recWordBytes:], w)
	}
	off = s.size
	if _, err := s.f.WriteAt(buf, off); err != nil {
		return 0, buf, fmt.Errorf("pregel: spill write failed: %w", err)
	}
	s.size += int64(need)
	return off, buf, nil
}

// readWindow reads count words starting at word index first of the
// segment at off into dst (grown as needed).
func (s *spillStore) readWindow(dst []uint64, raw []byte, off int64, first, count int) ([]uint64, []byte, error) {
	need := count * recWordBytes
	if cap(raw) < need {
		raw = make([]byte, need)
	}
	raw = raw[:need]
	if cap(dst) < count {
		dst = make([]uint64, count)
	}
	dst = dst[:count]
	if count == 0 {
		return dst, raw, nil
	}
	if _, err := s.f.ReadAt(raw, off+int64(first)*recWordBytes); err != nil {
		return dst, raw, fmt.Errorf("pregel: spill read failed: %w", err)
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(raw[i*recWordBytes:])
	}
	return dst, raw, nil
}
