"""Code facts computed once per content.

The analyzer keeps asking the same questions of the same bytes: every
update to one kernel version summarizes, normalizes and lint-decodes
sections that earlier updates already walked.  A fact about one
section is a pure function of its bytes and relocations, so each walk
below is memoized under a digest of exactly that content, in a bounded
:class:`~repro.compiler.cache.ContentCache` that ``clear_caches()``
empties and ``cache_stats()`` reports:

``absint-summary``  ``(fn, digest)`` -> :class:`FunctionSummary`
                    (``absint.abi.function_summary``; callers get a
                    copy);
``equiv-stream``    digest -> normalized instruction stream
                    (``absint.equiv``; a tuple);
``lint-decodes``    digest -> does the text decode (``lint``);
``text-sleeps``     digest -> does the text sleep (``quiescence``).

Keys are digests, never copies of section bytes, and carry
:data:`~repro.analysis.model.ANALYZER_VERSION` so a disk tier cannot
serve a fact an older analyzer computed.  Walks over the run kernel's
whole build are memoized per build instead
(:func:`repro.analysis.callgraph.code_index`).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable, Optional, Tuple, TypeVar

from repro.analysis import model
from repro.compiler.cache import ContentCache, register_cache
from repro.objfile import Section

T = TypeVar("T")

SUMMARY_CACHE = register_cache(
    ContentCache("absint-summary", max_entries=2048))
STREAM_CACHE = register_cache(ContentCache("equiv-stream", max_entries=2048))
DECODES_CACHE = register_cache(ContentCache("lint-decodes", max_entries=4096))
SLEEPS_CACHE = register_cache(ContentCache("text-sleeps", max_entries=4096))


def section_digest(section: Section) -> str:
    """sha256 over a section's bytes and relocations, in order."""
    digest = hashlib.sha256(section.data)
    for reloc in section.relocations:
        digest.update(b"\0%d:%s:%s:%d" % (reloc.offset,
                                           reloc.type.value.encode(),
                                           reloc.symbol.encode(),
                                           reloc.addend))
    return digest.hexdigest()


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def memoized(cache: ContentCache, key: Tuple[Hashable, ...],
             compute: Callable[[], T]) -> T:
    """``compute()`` once per ``key``; any value, None included."""
    key = (model.ANALYZER_VERSION,) + key
    boxed: Optional[Tuple[T]] = cache.get(key)
    if boxed is None:
        boxed = (compute(),)
        cache.put(key, boxed)
    return boxed[0]
