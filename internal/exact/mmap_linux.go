//go:build linux

package exact

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// OpenTableMapped loads a table persisted by WriteTableFile by mapping
// the file read-only instead of reading it into the heap: a warm load
// costs page-cache faults (plus the one checksum/validation pass) rather
// than a full read and an array-sized allocation. On little-endian hosts
// the returned table's value array aliases the mapping, which
// stays mapped until Close (deferred past in-flight Retains); on other
// hosts the decode copies, the mapping is dropped immediately and the
// table behaves exactly like a ReadTableFile load.
//
// The file is validated as strictly as ReadTableBytes — checksum, header
// plausibility, value bounds — before any value is trusted. A
// concurrent WriteTableFile replacing the file is safe: the rename swaps
// the directory entry while an existing mapping keeps the old inode's
// pages.
func OpenTableMapped(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("exact: stat %s: %w", path, err)
	}
	size := st.Size()
	if size < 32 || size > int64(math.MaxInt32) {
		return nil, fmt.Errorf("exact: %s: %w: implausible size %d", path, ErrBadTable, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("exact: mmap %s: %w", path, err)
	}
	t, err := ReadTableBytes(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !hostLittleEndian {
		// The decode copied into the heap; nothing aliases the mapping.
		syscall.Munmap(data)
		return t, nil
	}
	t.lc.mapped = data
	return t, nil
}

func munmapTable(b []byte) error { return syscall.Munmap(b) }
