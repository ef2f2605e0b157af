package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
)

// Snapshot file layout: an 16-byte header — magic "PCSNAP1\x00", u32
// CRC-32C of the payload, u32 payload length — followed by the payload.
// The file is written to a temp name and renamed into place, so a
// half-written snapshot is never visible under its real name; the
// checksum guards against the rename landing but the data pages not.
var snapMagic = [8]byte{'P', 'C', 'S', 'N', 'A', 'P', '1', 0}

const snapHeaderSize = 16

// writeSnapshotFile durably writes payload as the snapshot for gen.
func writeSnapshotFile(dir string, gen uint64, payload []byte) error {
	buf := make([]byte, snapHeaderSize, snapHeaderSize+len(payload))
	copy(buf, snapMagic[:])
	binary.BigEndian.PutUint32(buf[8:12], crc32.Checksum(payload, crcTable))
	binary.BigEndian.PutUint32(buf[12:16], uint32(len(payload)))
	buf = append(buf, payload...)
	return writeFileAtomic(dir, "snap-*.tmp", snapPath(dir, gen), buf)
}

// writeFileAtomic durably writes data as path, inside dir: to a temp file
// (named by tmpPattern) that is fsynced and then renamed into place, so a
// crash leaves either no file under that name or a whole one.
func writeFileAtomic(dir, tmpPattern, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// readSnapshotFile loads and verifies one snapshot file.
func readSnapshotFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < snapHeaderSize || [8]byte(raw[:8]) != snapMagic {
		return nil, fmt.Errorf("store: %s is not a snapshot file", path)
	}
	want := binary.BigEndian.Uint32(raw[8:12])
	n := binary.BigEndian.Uint32(raw[12:16])
	payload := raw[snapHeaderSize:]
	if uint32(len(payload)) != n || crc32.Checksum(payload, crcTable) != want {
		return nil, fmt.Errorf("store: snapshot %s fails its checksum", path)
	}
	return payload, nil
}

// snapPath and walPath name the on-disk files of one generation. The
// generation in a snapshot's name is the first WAL generation whose
// records are NOT covered by it: snap-000007 restores the state as of the
// end of wal-000006, and recovery replays wal-000007 onward.
func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%09d.snap", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%09d.log", gen))
}

// scanDir lists the snapshot and WAL generations present in a directory.
func scanDir(dir string) (snaps, wals []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range ents {
		name := ent.Name()
		var gen uint64
		switch {
		case len(name) == len("snap-000000000.snap") && name[:5] == "snap-" && filepath.Ext(name) == ".snap":
			if _, err := fmt.Sscanf(name, "snap-%09d.snap", &gen); err == nil {
				snaps = append(snaps, gen)
			}
		case len(name) == len("wal-000000000.log") && name[:4] == "wal-" && filepath.Ext(name) == ".log":
			if _, err := fmt.Sscanf(name, "wal-%09d.log", &gen); err == nil {
				wals = append(wals, gen)
			}
		}
	}
	return snaps, wals, nil
}

// syncDir fsyncs a directory so the files created, renamed and unlinked
// in it are durable. A filesystem that does not support fsync on a
// directory at all (EINVAL, ENOTSUP) makes it a no-op; any other failure
// is returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}
