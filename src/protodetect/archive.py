"""Single-file binary archives, the format of datasets and checkpoints.

An archive is one uncompressed .npz file. `save_archive` writes it
through an open file, so it lands at exactly the given path (given a
path, np.savez would append .npz), and every zip entry carries
zipfile's fixed 1980 timestamp, so its bytes depend on the entries
only. `load_archive` reads it with allow_pickle=False, or reads the
older JSON document when the file does not start with the zip magic.
"""

import json
import zipfile

import numpy as np

_ZIP_MAGIC = b"PK\x03\x04"


def save_archive(path, entries):
    """Write {name: array} to `path` as an uncompressed .npz archive."""
    with open(path, "wb") as f:
        np.savez(f, **entries)


def load_archive(path, kind, from_entries, from_json):
    """from_entries(entry) for an archive, where entry(name) returns the
    named array; from_json(doc) for a JSON document. ValueError, naming
    `kind`, on a missing entry or a corrupt archive."""
    with open(path, "rb") as f:
        if f.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            f.seek(0)
            return from_json(json.load(f))
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as archive:
                def entry(name):
                    try:
                        return archive[name]
                    except KeyError:
                        raise ValueError(f"{kind} has no entry {name!r}") from None
                return from_entries(entry)
        except (zipfile.BadZipFile, EOFError) as e:
            raise ValueError(f"corrupt {kind} archive: {e}") from None
