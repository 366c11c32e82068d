package storage

import (
	"fmt"

	"repro/internal/encoding"
)

// VerifySegmentBlob checks a marshalled segment's integrity without
// decoding any values: the framing must parse and every column's stored
// CRC-32 must match its null bitmap and encoded values. This is the
// check the object store's Verify hook, the background scrubber and the
// Volcano buffer pool's loader run per blob — cheap enough to run on
// every read, strong enough to catch a flipped byte anywhere in a column
// payload. Zone maps are not covered.
func VerifySegmentBlob(blob []byte) error {
	seg, err := UnmarshalSegment(blob)
	if err != nil {
		return fmt.Errorf("%w: segment framing: %v", encoding.ErrCorrupt, err)
	}
	for i, col := range seg.Columns {
		if col.ComputeChecksum() != col.Checksum {
			return fmt.Errorf("%w: segment %d column %d checksum mismatch",
				encoding.ErrCorrupt, seg.ID, i)
		}
	}
	return nil
}

// EnableVerify installs segment integrity verification on the server's
// object store: every read's payload is checksum-checked before it is
// returned, a failing replica is struck in the health tracker and its
// payload discarded onto the corrupt-side meters. writeBack additionally
// turns on read-repair — the clean payload that satisfies the read is
// written back over the damaged replica. Detection without write-back
// models a store that routes around damage but never heals it.
func (s *Server) EnableVerify(writeBack bool) {
	s.store.Verify = func(key string, data []byte) error {
		return VerifySegmentBlob(data)
	}
	s.store.WriteBack = writeBack
}
