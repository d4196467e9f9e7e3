package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Inside a synctest bubble time.Now is virtual, so every host timing comes
// from a system call the bubble does not intercept.

// monoNow reads CLOCK_MONOTONIC straight from the kernel, in nanoseconds.
func monoNow() int64 {
	var ts syscall.Timespec
	const clockMonotonic = 1
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return ts.Nano()
}

// hostSnap is the process's real cost so far.
type hostSnap struct {
	cpu     time.Duration // user + system CPU (getrusage)
	mallocs uint64
	numGC   uint32
}

func readHost() hostSnap {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		numGC:   m.NumGC,
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuPackages are the packages whose self-time share of the CPU profile the
// traced run reports, as cpu.<name>.
var cpuPackages = []string{"client", "rpc", "wire", "netsim", "mds", "meta", "bptree", "blockdev", "runtime"}

// profileShares decodes a gzipped runtime/pprof CPU profile and returns the
// share of sampled CPU whose leaf frame lies in each of cpuPackages. The
// profile.proto subset it reads: Profile.sample (2) {location_id (1),
// value (2)}, Profile.location (4) {id (1), line (4) {function_id (1)}},
// Profile.function (5) {id (1), name (2)}, Profile.string_table (6).
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location -> innermost function
		fnName  = map[uint64]int64{}  // function -> string index
		strtab  []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b != nil {
						first, _ := binary.Uvarint(b)
						if s.leaf == 0 {
							s.leaf = first
						}
					} else if s.leaf == 0 {
						s.leaf = v
					}
				case 2:
					if b != nil {
						for len(b) > 0 {
							x, n := binary.Uvarint(b)
							vals = append(vals, int64(x))
							b = b[n:]
						}
					} else {
						vals = append(vals, int64(v))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1] // cpu nanoseconds
			}
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && fn == 0:
					// Lines run innermost first: the first is the leaf.
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total int64
	for _, s := range samples {
		total += s.value
		idx := fnName[locFn[s.leaf]]
		if idx <= 0 || int(idx) >= len(strtab) {
			continue
		}
		if pkg := packageOf(strtab[idx]); pkg != "" {
			shares[pkg] += float64(s.value)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

// packageOf maps a profiled function name to one of cpuPackages, or "".
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "redbud/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, p := range cpuPackages {
		if p == pkg {
			return p
		}
	}
	return ""
}

// pbFields walks one protobuf message, calling fn with each field number and
// either its varint value (b == nil) or its length-delimited bytes.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad protobuf key")
		}
		msg = msg[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad protobuf varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad protobuf length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short protobuf fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wt)
		}
	}
	return nil
}
