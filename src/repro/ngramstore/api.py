"""The unified query surface every store front-end speaks: ``StoreAPI``.

Before this module existed the query surface was fractured: ``NGramStore``
returned rich iterators, ``StoreClient`` returned tuples over an ad-hoc
newline-JSON protocol, and vocabulary translation only happened client-side
(forcing every remote consumer to download the dictionary).  ``StoreAPI``
is the one contract they all implement now:

* ``get`` / ``multi_get`` — point lookups by n-gram key (term-id tuples);
* ``prefix`` — bounded range scan of every n-gram starting with a key;
* ``top_k`` — the k best records by frequency (or the first k by key);
* ``complete`` — next-word prediction: the k best single-token
  continuations of a prefix, in deterministic ``(-count, token)`` order;
* ``compare`` — point diff/intersect lookup across the served store and a
  second *comparison* store mounted server-side (``serve --extra-store``);
* ``stats`` — store metadata (record/partition counts, vocabulary flag);
* ``translate_terms`` / ``render_ngrams`` — the only term-keyed surface:
  surface-term tuples to key tuples and back, against the store's
  *persisted* dictionary — translation happens wherever the dictionary
  lives (the server, for remote implementations), so clients never
  download it.  A term-keyed query is the composition translate → id
  operation → render;
* ``close`` + context-manager lifecycle.

The canonical result shape is :class:`NGramRecord` — a ``(ngram, value)``
named tuple, where ``ngram`` is a tuple of term identifiers.  Being a
tuple subclass it compares equal to the plain ``(key, value)`` tuples the
pre-redesign ``StoreClient`` returned, so downstream callers migrate
without breaking; the conformance suite asserts byte-identical results
across every implementation: the local
:class:`~repro.ngramstore.reader.NGramStore`, the socket
:class:`~repro.ngramstore.server.StoreClient`, the
:class:`~repro.ngramstore.router.ReplicaPool`, the range-sharded
:class:`~repro.ngramstore.router.ShardRouter`, and the
:class:`~repro.ngramstore.http.HttpStoreClient`.

:class:`QueryEngine` is the transport-independent server half: it maps one
request object of the unified wire schema (shared verbatim by the TCP
socket protocol and the HTTP adapter) to one response object through one
``{op: handler}`` table, enforcing the server-side result caps.  Keys are
spelled ``key`` (one) or ``keys`` (a batch) in every operation; any other
spelling is an error naming the field.  :data:`OPERATIONS` (the metrics
buckets) and :data:`READ_OPERATIONS` (the operations worth per-request
I/O accounting) are derived from that table.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import StoreError, VocabularyError
from repro.ngramstore.table import TOP_K_ORDERS, prefix_records, validate_top_k

_MISSING = object()


class NGramRecord(NamedTuple):
    """Canonical ``(ngram, value)`` result record of every ``StoreAPI``.

    ``ngram`` is a tuple of term identifiers.  As a tuple subclass it is
    equal to (and unpacks like) the bare 2-tuples older call sites expect.
    """

    ngram: Tuple
    value: Any


Record = NGramRecord


class Completion(NamedTuple):
    """One ``complete`` result: a continuation token and its frequency.

    ``token`` is a term identifier.  Tuple-compatible, like
    :class:`NGramRecord`.
    """

    token: Any
    value: Any


#: Server-side result caps: a single response is one JSON payload held in
#: memory, so unbounded prefix scans (or absurd k / batch sizes) must not
#: let one request materialise a whole larger-than-RAM store.  Capped
#: prefix responses set ``truncated``; clients page with an explicit limit
#: or fall back to offline scans for bulk exports.
MAX_PREFIX_RECORDS = 10_000
MAX_TOP_K = 10_000
MAX_BATCH_KEYS = 10_000

#: Default result size of the ``complete`` operation.
DEFAULT_COMPLETE_K = 5


def validate_complete_k(k: Any) -> int:
    """Validate a ``complete`` result size: a positive int within the cap."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise StoreError(f"complete k must be a positive integer, got {k!r}")
    if k > MAX_TOP_K:
        raise StoreError(f"complete k must be <= {MAX_TOP_K}, got {k}")
    return k


def validate_limit(limit: Any) -> Optional[int]:
    """Validate a prefix limit: ``None`` (uncapped) or a non-negative int.

    Booleans are refused although ``bool`` subclasses ``int``: a JSON
    ``true`` is not a record count.
    """
    if limit is not None and (
        not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
    ):
        raise StoreError(f"prefix limit must be a non-negative integer, got {limit!r}")
    return limit


def prefix_scan(scan: Callable[..., Any], tokens: Iterable[Any], limit: Optional[int]) -> Iterator[Record]:
    """The records of ``scan`` whose key starts with ``tokens``, lazily.

    The ``prefix`` implementation every local store shares: ``limit`` is
    validated eagerly (at call time, not on first iteration), then caps
    how many records are yielded.
    """
    records = prefix_records(scan, tuple(tokens))
    if validate_limit(limit) is not None:
        records = islice(records, limit)
    return (NGramRecord(key, value) for key, value in records)


def _require_vocabulary(store: Any) -> Any:
    vocabulary = store.vocabulary
    if vocabulary is None:
        raise StoreError(
            f"store {store.store_dir!r} has no persisted vocabulary; "
            "term-keyed operations need a store counted from an encoded collection"
        )
    return vocabulary


def vocabulary_translate(store: Any, items: Iterable[Sequence[str]]) -> List[Optional[Tuple]]:
    """Surface-term tuples -> term-id keys via ``store.vocabulary``.

    ``None`` where any term is unknown: the corpus simply never produced
    it, so the n-gram is absent — a normal query outcome, not an error.
    Shared by every store that holds a dictionary; a store without one
    raises :class:`StoreError`.
    """
    vocabulary = _require_vocabulary(store)
    keys: List[Optional[Tuple]] = []
    for terms in items:
        try:
            keys.append(tuple(vocabulary.term_id(term) for term in terms))
        except VocabularyError:
            keys.append(None)
    return keys


def vocabulary_render(store: Any, ngrams: Iterable[Sequence[Any]]) -> List[Tuple[str, ...]]:
    """Term-id keys -> surface-term tuples via ``store.vocabulary``.

    An id the dictionary does not know is a :class:`StoreError`, the same
    error type every remote implementation raises for it.
    """
    vocabulary = _require_vocabulary(store)
    try:
        return [
            tuple(vocabulary.term(term_id) for term_id in ngram) for ngram in ngrams
        ]
    except VocabularyError as error:
        raise StoreError(f"{error}") from error


def complete_scan(
    records: Iterable[Record], prefix_length: int, k: int
) -> Tuple[List[Completion], bool]:
    """The canonical completion scan every implementation shares.

    ``records`` streams the prefix-matching records in key order (a store's
    ``prefix(key)``, or an equivalently sorted in-memory slice); records
    one token longer than the prefix are the completion candidates, ranked
    by ``(-value, token)`` — the explicit token tie-break is what makes
    results byte-identical across the local store, every wire transport,
    and :meth:`~repro.applications.language_model.NGramLanguageModel.
    complete`, which all funnel through this function.  At most
    ``MAX_PREFIX_RECORDS`` records are scanned; the returned flag reports
    whether the scan was cut short (so very hot prefixes degrade loudly,
    not wrongly).  Returns ``(top-k completions, truncated)``.
    """
    candidates: List[Tuple[Any, Any]] = []
    truncated = False
    scanned = 0
    for key, value in records:
        if scanned >= MAX_PREFIX_RECORDS:
            truncated = True
            break
        scanned += 1
        if len(key) != prefix_length + 1:
            continue
        candidates.append((key[prefix_length], value))
    try:
        candidates.sort(key=lambda item: (-item[1], item[0]))
    except TypeError as exc:
        raise StoreError(
            f"complete requires numeric, mutually comparable frequencies ({exc})"
        ) from exc
    return [Completion(token, value) for token, value in candidates[:k]], truncated


def ensure_comparable_vocabulary(primary: Any, extra: Any) -> None:
    """Refuse mounting a comparison store whose vocabulary differs.

    ``compare`` looks one id key up in both stores, and clients translate
    surface terms against the *primary* store's dictionary, which is only
    meaningful when both were encoded against the same dictionary.  Stores
    without a persisted vocabulary are trusted (id-keyed deployments manage
    agreement themselves).
    """
    vocabulary_a = getattr(primary, "vocabulary", None)
    vocabulary_b = getattr(extra, "vocabulary", None)
    if vocabulary_a is None or vocabulary_b is None:
        return
    if list(vocabulary_a.to_lines()) != list(vocabulary_b.to_lines()):
        raise StoreError(
            "cannot mount the comparison store: its vocabulary differs from "
            "the served store's, so term ids are not comparable across the "
            "two; re-count both against one shared dictionary"
        )


class StoreAPI:
    """The unified query contract (see the module docstring).

    Core operations (``get`` / ``prefix`` / ``top_k`` / ``stats`` /
    ``translate_terms`` / ``render_ngrams`` / ``close``) are provided by
    each implementation; ``multi_get`` and ``complete`` have default
    compositions here so semantics cannot diverge — remote implementations
    override them only to fuse the same composition into a single round
    trip.
    """

    # ------------------------------------------------------ core contract
    def get(self, ngram: Iterable[Any], default: Any = None) -> Any:
        """The value stored for ``ngram``, or ``default``."""
        raise NotImplementedError

    def prefix(self, tokens: Iterable[Any], limit: Optional[int] = None) -> Iterable[Record]:
        """Records whose key starts with ``tokens``, in key order.

        ``limit`` caps the result count; remote implementations raise
        :class:`StoreError` when an uncapped request hits the server cap
        (a silently partial answer would be a wrong answer).
        """
        raise NotImplementedError

    def top_k(self, k: int, order: str = "frequency") -> List[Record]:
        """The ``k`` best records store-wide under ``order``."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Store metadata: record/partition counts, codec, vocabulary flag."""
        raise NotImplementedError

    def translate_terms(self, items: Sequence[Sequence[str]]) -> List[Optional[Tuple]]:
        """Surface-term tuples -> key tuples (``None`` for unknown terms)."""
        raise NotImplementedError

    def render_ngrams(self, ngrams: Sequence[Tuple]) -> List[Tuple[str, ...]]:
        """Key tuples -> surface-term tuples via the persisted dictionary."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # --------------------------------------------------- composed surface
    def multi_get(self, ngrams: Sequence[Iterable[Any]], default: Any = None) -> List[Any]:
        """Values for ``ngrams`` in order (``default`` where absent)."""
        return [self.get(ngram, default) for ngram in ngrams]

    def complete(self, ngram: Iterable[Any], k: int = DEFAULT_COMPLETE_K) -> List[Completion]:
        """The ``k`` best single-token continuations of ``ngram``.

        A prefix scan filtered to records exactly one token longer than the
        prefix, ranked ``(-value, token)`` — see :func:`complete_scan` for
        the canonical semantics every implementation shares.  An empty
        prefix predicts first words (top unigrams).
        """
        key = tuple(ngram)
        completions, _ = complete_scan(self.prefix(key), len(key), validate_complete_k(k))
        return completions

    def ping(self) -> bool:
        """Liveness probe; local implementations are trivially alive."""
        return True

    # ----------------------------------------------------------- lifecycle
    def __enter__(self) -> "StoreAPI":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RemoteStore(StoreAPI):
    """``StoreAPI`` over a request/response wire: shared by every client.

    Subclasses (the socket :class:`~repro.ngramstore.server.StoreClient`
    and the :class:`~repro.ngramstore.http.HttpStoreClient`) provide only
    ``_call`` (one unified-schema request dict -> the response dict) and
    ``close``; everything else lives here, so the two transports cannot
    drift apart.
    """

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    # ------------------------------------------------------------- queries
    def get(self, ngram: Iterable[Any], default: Any = None) -> Any:
        response = self._call({"op": "get", "key": list(ngram)})
        return response["value"] if response["found"] else default

    def multi_get(self, ngrams: Sequence[Iterable[Any]], default: Any = None) -> List[Any]:
        response = self._call(
            {"op": "multi_get", "keys": [list(ngram) for ngram in ngrams]}
        )
        return [
            value if found else default
            for found, value in zip(response["found"], response["values"])
        ]

    def prefix(self, tokens: Iterable[Any], limit: Optional[int] = None) -> List[Record]:
        request: Dict[str, Any] = {"op": "prefix", "key": list(tokens)}
        if limit is not None:
            request["limit"] = limit
        response = self._call(request)
        records = response["records"]
        if response.get("truncated") and (limit is None or len(records) < limit):
            # Truncated short of what the caller asked for (everything, or
            # a limit above the server cap): a silently partial result
            # would be a wrong answer.
            raise StoreError(
                f"prefix result truncated at the server cap ({MAX_PREFIX_RECORDS} "
                "records); pass a limit at or below the cap, or export offline"
            )
        return [NGramRecord(tuple(key), value) for key, value in records]

    def top_k(self, k: int, order: str = "frequency") -> List[Record]:
        response = self._call({"op": "top_k", "k": k, "order": order})
        return [NGramRecord(tuple(key), value) for key, value in response["records"]]

    @staticmethod
    def _strip_envelope(response: Dict[str, Any]) -> Dict[str, Any]:
        """Drop the ``ok`` field so remote stats match local ones byte for byte."""
        return {key: value for key, value in response.items() if key != "ok"}

    def stats(self) -> Dict[str, Any]:
        return self._strip_envelope(self._call({"op": "stats"}))

    def server_stats(self) -> Dict[str, Any]:
        return self._strip_envelope(self._call({"op": "server_stats"}))

    def metrics_text(self) -> str:
        """The server's metrics in the Prometheus text exposition format."""
        return str(self._call({"op": "metrics"}).get("text", ""))

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    # ------------------------------------------- server-side vocabulary ops
    def translate_terms(self, items: Sequence[Sequence[str]]) -> List[Optional[Tuple]]:
        response = self._call({"op": "translate", "terms": [list(item) for item in items]})
        return [None if key is None else tuple(key) for key in response["keys"]]

    def render_ngrams(self, ngrams: Sequence[Tuple]) -> List[Tuple[str, ...]]:
        response = self._call({"op": "render", "ngrams": [list(ngram) for ngram in ngrams]})
        return [tuple(terms) for terms in response["terms"]]

    # --------------------------------------------------- analytics serving
    def complete(self, ngram: Iterable[Any], k: int = DEFAULT_COMPLETE_K) -> List[Completion]:
        response = self._call({"op": "complete", "key": list(ngram), "k": k})
        return [Completion(token, value) for token, value in response["completions"]]

    def compare(self, ngram: Iterable[Any]) -> Dict[str, Any]:
        """Point lookup of ``ngram`` in the served store *and* the mounted
        comparison store: ``{"found_a", "value_a", "found_b", "value_b"}``.

        Raises :class:`StoreError` when the server was started without
        ``--extra-store``.
        """
        return self._strip_envelope(self._call({"op": "compare", "key": list(ngram)}))


def _validated_key(data: Any, field: str) -> Tuple:
    if not isinstance(data, list):
        raise StoreError(
            f"{field} must be a JSON array of terms, got {type(data).__name__}"
        )
    return tuple(data)


def _validated_terms(data: Any, field: str) -> Tuple[str, ...]:
    if not isinstance(data, list) or not all(isinstance(term, str) for term in data):
        raise StoreError(f"{field} must be a JSON array of strings")
    return tuple(data)


def _validated_batch(
    request: Dict[str, Any],
    field: str,
    operation: str,
    entry: Callable[[Any, str], Tuple] = _validated_key,
) -> List[Tuple]:
    """The one batch validator: a capped JSON array of validated entries."""
    data = request.get(field)
    if not isinstance(data, list):
        raise StoreError(f"{field} must be a JSON array of arrays")
    if len(data) > MAX_BATCH_KEYS:
        raise StoreError(
            f"{operation} batch must be <= {MAX_BATCH_KEYS} entries, got {len(data)}"
        )
    return [entry(item, f"each {field} entry") for item in data]


class _NullTrace:
    """Stage-timing no-op used when a request arrives without tracing."""

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        yield


_NULL_TRACE = _NullTrace()


class QueryEngine:
    """Maps unified-schema request dicts to response dicts over one store.

    The store is anything with the local ``StoreAPI`` surface (an
    :class:`~repro.ngramstore.reader.NGramStore` or a
    :class:`~repro.ngramstore.router.ShardView`); both the TCP socket
    server and the HTTP adapter own one engine each, so the two transports
    serve byte-identical payloads by construction.  Each operation is one
    handler in the module's dispatch table.  ``server_stats`` and
    ``metrics`` are *not* handled here — they belong to the transport
    (metrics, cache, connection counts), not to the store.

    ``extra_store`` is an optional second store (``serve --extra-store``)
    the ``compare`` operation looks keys up in alongside the primary;
    without one, ``compare`` is a clean :class:`StoreError`.  ``translate``
    and ``render`` always use the *primary* store's vocabulary.
    """

    def __init__(self, store: Any, extra_store: Any = None) -> None:
        self.store = store
        self.extra_store = extra_store

    def handle(self, request: Dict[str, Any], trace: Any = None) -> Dict[str, Any]:
        """Answer one unified-schema request.

        ``trace`` is an optional :class:`~repro.util.tracing.TraceContext`;
        when given, time spent routing the request (validation) and reading
        the store is credited to its ``route`` and ``read`` stages, which is
        what lets a slow-query log line say *where* a request's latency
        went.
        """
        operation = str(request.get("op"))
        entry = _DISPATCH.get(operation)
        if entry is None:
            raise StoreError(
                f"unknown op {operation!r}; expected one of {', '.join(OPERATIONS)}"
            )
        return entry[0](self, request, _NULL_TRACE if trace is None else trace)

    # ----------------------------------------------------------- handlers
    def _get(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("route"):
            key = _validated_key(request.get("key"), "key")
        with trace.stage("read"):
            value = self.store.get(key, _MISSING)
        if value is _MISSING:
            return {"found": False, "value": None}
        return {"found": True, "value": value}

    def _multi_get(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("route"):
            keys = _validated_batch(request, "keys", "multi_get")
        found: List[bool] = []
        values: List[Any] = []
        with trace.stage("read"):
            for key in keys:
                value = self.store.get(key, _MISSING)
                found.append(value is not _MISSING)
                values.append(None if value is _MISSING else value)
        return {"found": found, "values": values}

    def _prefix(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("route"):
            key = _validated_key(request.get("key"), "key")
            limit = validate_limit(request.get("limit"))
        with trace.stage("read"):
            cap = MAX_PREFIX_RECORDS if limit is None else min(limit, MAX_PREFIX_RECORDS)
            records: List[List[Any]] = []
            truncated = False
            for record_key, value in self.store.prefix(key):
                if len(records) >= cap:
                    truncated = True
                    break
                records.append([list(record_key), value])
        return {"records": records, "truncated": truncated}

    def _top_k(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("route"):
            k = request.get("k")
            if not isinstance(k, int) or isinstance(k, bool):
                raise StoreError(f"top_k k must be an integer, got {k!r}")
            if k > MAX_TOP_K:
                raise StoreError(f"top_k k must be <= {MAX_TOP_K}, got {k}")
            order = request.get("order", "frequency")
            if order not in TOP_K_ORDERS:
                raise StoreError(
                    f"top_k order must be one of {', '.join(TOP_K_ORDERS)}, "
                    f"got {order!r}"
                )
            validate_top_k(k, order)
        with trace.stage("read"):
            records = self.store.top_k(k, order)
            return {"records": [[list(key), value] for key, value in records]}

    def _complete(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("route"):
            key = _validated_key(request.get("key"), "key")
            k = validate_complete_k(request.get("k", DEFAULT_COMPLETE_K))
        with trace.stage("read"):
            completions, truncated = complete_scan(self.store.prefix(key), len(key), k)
        return {
            "completions": [list(completion) for completion in completions],
            "truncated": truncated,
        }

    def _compare(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("route"):
            if self.extra_store is None:
                raise StoreError(
                    "no comparison store mounted; start the server with "
                    "--extra-store to enable 'compare'"
                )
            key = _validated_key(request.get("key"), "key")
        with trace.stage("read"):
            value_a = self.store.get(key, _MISSING)
            value_b = self.extra_store.get(key, _MISSING)
        return {
            "found_a": value_a is not _MISSING,
            "value_a": None if value_a is _MISSING else value_a,
            "found_b": value_b is not _MISSING,
            "value_b": None if value_b is _MISSING else value_b,
        }

    def _translate(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("route"):
            batch = _validated_batch(request, "terms", "translate", _validated_terms)
        with trace.stage("read"):
            keys = self.store.translate_terms(batch)
        return {"keys": [None if key is None else list(key) for key in keys]}

    def _render(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("route"):
            ngrams = _validated_batch(request, "ngrams", "render")
        with trace.stage("read"):
            rendered = self.store.render_ngrams(ngrams)
        return {"terms": [list(terms) for terms in rendered]}

    def _stats(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        with trace.stage("read"):
            return dict(self.store.stats())

    def _ping(self, request: Dict[str, Any], trace: Any) -> Dict[str, Any]:
        return {"pong": True}


#: The one dispatch table of the unified wire schema: op -> (handler,
#: whether the operation reads store blocks).
_DISPATCH: Dict[str, Tuple[Callable[..., Dict[str, Any]], bool]] = {
    "get": (QueryEngine._get, True),
    "multi_get": (QueryEngine._multi_get, True),
    "prefix": (QueryEngine._prefix, True),
    "top_k": (QueryEngine._top_k, True),
    "complete": (QueryEngine._complete, True),
    "compare": (QueryEngine._compare, True),
    "translate": (QueryEngine._translate, False),
    "render": (QueryEngine._render, False),
    "stats": (QueryEngine._stats, False),
    "ping": (QueryEngine._ping, False),
}

#: Operations answered by the transport, not the engine: they report on
#: the server (metrics, cache, connections), not on the store.
TRANSPORT_OPERATIONS = ("server_stats", "metrics")

#: Every operation of the unified wire protocol (also the metrics buckets).
OPERATIONS = (*_DISPATCH, *TRANSPORT_OPERATIONS)

#: Operations that read blocks — the ones worth per-request I/O deltas.
READ_OPERATIONS = frozenset(
    operation for operation, (_, reads) in _DISPATCH.items() if reads
)
