package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The store treats WAL records as opaque bytes; their layout belongs to
// whoever appends them. formatFile pins that layout's version for a whole
// node directory, as decimal text, so records written under one layout
// are never replayed through the decoder of another.
const formatFile = "FORMAT"

// unversionedFormat is the version of a directory that holds logs or
// snapshots but no format file: it was written before directories
// carried one.
const unversionedFormat = 1

// CheckFormat ties dir (created if needed) to version, the caller's
// record-format version; call it before Open. A directory with no logs
// or snapshots yet is stamped with version; one stamped already, or
// written before stamps existed, must match it, and the error of one that
// does not names both versions.
func CheckFormat(dir string, version int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, formatFile)
	have := 0
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if have, err = strconv.Atoi(strings.TrimSpace(string(raw))); err != nil {
			return fmt.Errorf("store: %s: unreadable record format version %q", path, raw)
		}
	case !os.IsNotExist(err):
		return err
	default:
		snaps, wals, err := scanDir(dir)
		if err != nil {
			return err
		}
		if len(snaps)+len(wals) > 0 {
			have = unversionedFormat
		}
	}
	if have == 0 {
		// An empty directory: stamp it. A crash before the rename leaves it
		// empty, to be stamped by the next boot.
		return writeFileAtomic(dir, "format-*.tmp", path, []byte(strconv.Itoa(version)+"\n"))
	}
	if have != version {
		return fmt.Errorf("store: %s holds records of format version %d, this build reads and writes version %d", dir, have, version)
	}
	return nil
}
