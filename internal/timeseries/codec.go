package timeseries

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Snapshot wire format (little-endian):
//
//	magic "TFTS" | u8 version | u32 nseries
//	per series: u16 namelen | name | u8 kind | u32 npoints | npoints × (i64 ts, f64 v)
//
// The binary form is what tfd serves (GET /v1/timeseries?format=binary),
// what tfbench writes (-snapshot-out) and what tfmon reads; DecodeSnapshot is
// defensive (fuzzed by FuzzSeriesDecode): corrupt input yields an error,
// never a panic, and claimed counts are validated against the remaining
// byte budget before any allocation so hostile headers cannot balloon
// memory.

var snapshotMagic = [4]byte{'T', 'F', 'T', 'S'}

const snapshotVersion = 1

// ErrCorruptSnapshot reports undecodable snapshot bytes.
var ErrCorruptSnapshot = errors.New("timeseries: corrupt snapshot")

// EncodeSnapshot serializes a snapshot to the binary wire format.
func EncodeSnapshot(s Snapshot) []byte {
	size := 4 + 1 + 4
	for _, ss := range s.Series {
		size += 2 + len(ss.Name) + 1 + 4 + 16*len(ss.Points)
	}
	out := make([]byte, 0, size)
	out = append(out, snapshotMagic[:]...)
	out = append(out, snapshotVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Series)))
	for _, ss := range s.Series {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(ss.Name)))
		out = append(out, ss.Name...)
		var k byte
		if ss.Kind == Counter.String() {
			k = 1
		}
		out = append(out, k)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(ss.Points)))
		for _, p := range ss.Points {
			out = binary.LittleEndian.AppendUint64(out, uint64(p.TS))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.V))
		}
	}
	return out
}

// DecodeSnapshot parses the binary wire format. Corrupt or truncated input
// returns ErrCorruptSnapshot (wrapped with detail); it never panics.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if len(data) < 9 {
		return s, fmt.Errorf("%w: short header (%d bytes)", ErrCorruptSnapshot, len(data))
	}
	if [4]byte(data[:4]) != snapshotMagic {
		return s, fmt.Errorf("%w: bad magic", ErrCorruptSnapshot)
	}
	if data[4] != snapshotVersion {
		return s, fmt.Errorf("%w: unknown version %d", ErrCorruptSnapshot, data[4])
	}
	nseries := binary.LittleEndian.Uint32(data[5:9])
	off := 9
	// Each series costs at least 7 bytes on the wire; reject counts the
	// remaining bytes cannot possibly hold before allocating.
	if uint64(nseries)*7 > uint64(len(data)-off) {
		return s, fmt.Errorf("%w: %d series claimed in %d bytes", ErrCorruptSnapshot, nseries, len(data)-off)
	}
	s.Series = make([]SeriesSnapshot, 0, nseries)
	for i := uint32(0); i < nseries; i++ {
		if off+2 > len(data) {
			return Snapshot{}, fmt.Errorf("%w: truncated series header", ErrCorruptSnapshot)
		}
		nameLen := int(binary.LittleEndian.Uint16(data[off : off+2]))
		off += 2
		if off+nameLen+5 > len(data) {
			return Snapshot{}, fmt.Errorf("%w: truncated series %d", ErrCorruptSnapshot, i)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		kind := Gauge
		if data[off] == 1 {
			kind = Counter
		} else if data[off] != 0 {
			return Snapshot{}, fmt.Errorf("%w: bad kind %d", ErrCorruptSnapshot, data[off])
		}
		off++
		npoints := binary.LittleEndian.Uint32(data[off : off+4])
		off += 4
		if uint64(npoints)*16 > uint64(len(data)-off) {
			return Snapshot{}, fmt.Errorf("%w: %d points claimed in %d bytes", ErrCorruptSnapshot, npoints, len(data)-off)
		}
		points := make([]Point, npoints)
		for j := range points {
			points[j].TS = int64(binary.LittleEndian.Uint64(data[off : off+8]))
			points[j].V = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8 : off+16]))
			off += 16
		}
		s.Series = append(s.Series, SeriesSnapshot{Name: name, Kind: kind.String(), Points: points})
	}
	if off != len(data) {
		return Snapshot{}, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, len(data)-off)
	}
	return s, nil
}

// DecodeSnapshotAny sniffs the payload: binary wire format when the magic
// matches, JSON otherwise. This is what tfmon feeds files through.
func DecodeSnapshotAny(data []byte) (Snapshot, error) {
	if len(data) >= 4 && [4]byte(data[:4]) == snapshotMagic {
		return DecodeSnapshot(data)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return s, nil
}
