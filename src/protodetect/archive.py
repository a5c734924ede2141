"""Single-file binary archives, the format of datasets and checkpoints.

An archive is one uncompressed .npz file. `save_archive` writes it
through an open file, so it lands at exactly the given path (given a
path, np.savez would append .npz), and every zip entry carries
zipfile's fixed 1980 timestamp, so its bytes depend on the entries
only. `load_archive` reads it with allow_pickle=False, and refuses a
file that does not start with the zip magic, such as a JSON document
of the older formats.
"""

import zipfile

import numpy as np

_ZIP_MAGIC = b"PK\x03\x04"


def save_archive(path, entries):
    """Write {name: array} to `path` as an uncompressed .npz archive."""
    with open(path, "wb") as f:
        np.savez(f, **entries)


def load_archive(path, kind, from_entries):
    """from_entries(entry), where entry(name) returns the named array.
    ValueError, naming `kind`, on a file that is not an archive, a
    missing entry or a corrupt archive."""
    with open(path, "rb") as f:
        # sniffed first: np.load would call a JSON file pickled data
        if f.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise ValueError(f"{kind} is not a v2 .npz archive; JSON files "
                             f"of the older format are no longer read")
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
