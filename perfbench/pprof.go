package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// cpuProfile is the part of a pprof CPU profile the benchmark reads:
// each sample's stack as function names, leaf first, with its weight.
type cpuProfile struct {
	stacks  [][]string
	weights []int64
}

// readCPUProfile decodes a gzipped pprof profile (profile.proto) as
// written by runtime/pprof. Only the fields needed to name each sample's
// stack are decoded.
func readCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			err := forFields(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := forFields(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // Location.line
					return forFields(b, func(field int, v uint64, _ []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := forFields(b, func(field int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		// CPU profiles carry [samples count, cpu nanoseconds].
		p.weights = append(p.weights, s.values[len(s.values)-1])
	}
	return p, nil
}

// forFields calls fn for each field of a protobuf message: varint fields
// pass their value, length-delimited fields their bytes.
func forFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short protobuf fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad protobuf length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short protobuf fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field that may arrive unpacked
// (one varint) or packed (bytes of varints).
func appendUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	r := bytes.NewReader(packed)
	for r.Len() > 0 {
		u, err := binary.ReadUvarint(r)
		if err != nil {
			break
		}
		dst = append(dst, u)
	}
	return dst
}
