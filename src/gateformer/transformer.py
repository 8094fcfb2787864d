"""Compact pre-norm transformer encoder shared by the user and candidate sides.

The user side encodes the gated (weight-scaled) token embeddings of the
whole history, item by item in the order the gate's
:class:`gating.GroupedSelection` holds them, with learned positions assigned
globally over that sequence; the candidate side encodes the full, ungated
token sequence. Both sides run through :func:`encode_sequences`, which takes
each sequence as row indices into a table (the gated rows, or the word
embeddings), encodes sequences of equal length as one stack and pools each
to a single vector with a learned query (weighted pooling aggregation, one
:func:`numerics.attention_pool` node). The two sides share every parameter,
including the word embedding table, which the gate shares too. A pre-norm
layer is :func:`numerics.layer_norm`, :func:`numerics.attention`, residual
add, layer norm, :func:`numerics.feed_forward`, residual add: six tape
nodes.

Checkpoint format: ``<prefix>.manifest.json`` (sorted tensor names, shapes,
byte offsets, total bytes and the blob's sha256) plus ``<prefix>.bin``
holding the raw little-endian float64 arrays concatenated in manifest order;
the loader checks the manifest against the blob, hash included, before
reading any array. Both files are written to temporary files and then moved
into place, blob first.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .numerics import Tensor, gather_rows, tensor
from .text import TokenSequence


@dataclass
class LayerParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": v for k, v in self.__dict__.items()}


@dataclass
class TransformerParams:
    word_embeddings: Tensor          # (V, d), shared with the gate
    pos_embeddings: Tensor           # (P_max, d)
    layers: list[LayerParams]
    pool_q: Tensor                   # (d,)
    heads: int

    def __post_init__(self):
        d = self.word_embeddings.data.shape[1]
        if d % self.heads != 0:
            raise ValueError(f"model dim {d} not divisible by {self.heads} heads")

    @property
    def d(self) -> int:
        return self.word_embeddings.data.shape[1]

    @property
    def max_positions(self) -> int:
        return self.pos_embeddings.data.shape[0]

    def named_tensors(self) -> dict[str, Tensor]:
        out = {
            "embed.pos": self.pos_embeddings,
            "trans.pool.q": self.pool_q,
        }
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"trans.layer{i}"))
        return out

    def fingerprint(self) -> str:
        """:func:`numerics.fingerprint` of ``heads`` and every tensor the
        encoders read, so it changes with any edit to them."""
        return nm.fingerprint(
            f"heads={self.heads}", {"embed.word": self.word_embeddings, **self.named_tensors()}
        )


def init_transformer_params(
    word_embeddings: Tensor,
    n_layers: int,
    heads: int,
    max_positions: int,
    rng: np.random.Generator,
) -> TransformerParams:
    d = word_embeddings.data.shape[1]

    def glorot(shape):
        lim = np.sqrt(6.0 / (shape[0] + shape[-1]))
        return tensor(rng.uniform(-lim, lim, size=shape), requires_grad=True)

    def zeros(shape):
        return tensor(np.zeros(shape), requires_grad=True)

    def ones(shape):
        return tensor(np.ones(shape), requires_grad=True)

    layers = [
        LayerParams(
            wq=glorot((d, d)), bq=zeros(d),
            wk=glorot((d, d)), bk=zeros(d),
            wv=glorot((d, d)), bv=zeros(d),
            wo=glorot((d, d)), bo=zeros(d),
            ln1_gamma=ones(d), ln1_beta=zeros(d),
            ln2_gamma=ones(d), ln2_beta=zeros(d),
            ffn_w1=glorot((d, 4 * d)), ffn_b1=zeros(4 * d),
            ffn_w2=glorot((4 * d, d)), ffn_b2=zeros(d),
        )
        for _ in range(n_layers)
    ]
    return TransformerParams(
        word_embeddings=word_embeddings,
        pos_embeddings=tensor(rng.normal(0, 0.02, size=(max_positions, d)), requires_grad=True),
        layers=layers,
        pool_q=glorot((d,)),
        heads=heads,
    )


def encode_sequence(x: Tensor, params: TransformerParams, collect: list | None = None) -> Tensor:
    """Run the pre-norm layer stack on a (B, n, d) stack of equal-length
    sequences; with zero layers this is the identity. Sequences in a stack
    never attend to each other. ``collect``, if given, receives each layer's
    (B, heads, n, n) attention maps.
    """
    for layer in params.layers:
        attn_in = nm.layer_norm(x, layer.ln1_gamma, layer.ln1_beta)
        x = nm.add(x, nm.attention(
            attn_in, layer.wq, layer.bq, layer.wk, layer.bk, layer.wv, layer.bv,
            layer.wo, layer.bo, params.heads, collect,
        ))
        ffn_in = nm.layer_norm(x, layer.ln2_gamma, layer.ln2_beta)
        x = nm.add(x, nm.feed_forward(
            ffn_in, layer.ffn_w1, layer.ffn_b1, layer.ffn_w2, layer.ffn_b2,
        ))
    return x


def weighted_pool(x: Tensor, query: Tensor) -> Tensor:
    """Attention-style pooling with a learnable query: :func:`numerics.attention_pool`.

    (n, d) pools to (d,); a stack (B, n, d) pools each sequence to (B, d).
    """
    return nm.attention_pool(x, query)


def encode_sequences(table: Tensor, index, params: TransformerParams) -> Tensor:
    """(n, d) embeddings of n sequences, each given as row indices into ``table``.

    Sequences of equal length L run through the encoder as one (G, L, d)
    stack: their rows gathered out of ``table`` (or ``table`` reshaped, when
    the stack reads every row of it in order), positions 0..L-1 added, the
    layer stack run and each sequence weight-pooled. Rows come back in input
    order. An empty sequence, or one longer than the position table, raises
    ``ValueError``.
    """
    by_len: dict[int, list[int]] = {}
    for i, rows in enumerate(index):
        by_len.setdefault(len(rows), []).append(i)
    if not by_len:
        raise ValueError("no sequences to encode")
    chunks, order = [], []
    for L in sorted(by_len):
        if L < 1:
            raise ValueError("cannot encode an empty sequence")
        if L > params.max_positions:
            raise ValueError(
                f"sequence length {L} exceeds max positions {params.max_positions}"
            )
        members = by_len[L]
        ids = np.array([index[i] for i in members], dtype=np.intp)      # (G, L)
        if ids.size == len(table.data) and np.array_equal(ids.ravel(), np.arange(ids.size)):
            x = nm.reshape(table, (len(members), L, params.d))
        else:
            x = gather_rows(table, ids)
        x = nm.add(x, nm.narrow(params.pos_embeddings, 0, 0, L))
        chunks.append(weighted_pool(encode_sequence(x, params), params.pool_q))
        order.extend(members)
    return nm.assemble_rows(chunks, order)


def encode_user(rows: Tensor, params: TransformerParams) -> Tensor:
    """User embedding from one history's (T, d) gated rows (a
    :class:`gating.GroupedSelection`'s ``rows`` for one history), encoded
    as one sequence by :func:`encode_sequences`."""
    T = rows.data.shape[0]
    if T == 0:
        raise ValueError("encode_user needs at least one selected token")
    return nm.reshape(encode_sequences(rows, [np.arange(T)], params), (params.d,))


def encode_candidate(seq: TokenSequence, params: TransformerParams) -> Tensor:
    """Candidate embedding from the full (ungated) token sequence."""
    return nm.reshape(encode_candidates([seq], params), (params.d,))


def encode_candidates(seqs: list[TokenSequence], params: TransformerParams) -> Tensor:
    """All candidate embeddings as one (B, d) tensor, from the full (ungated)
    token sequences.

    A candidate's embedding depends only on its token ids, so each distinct
    id sequence is encoded once by :func:`encode_sequences` over the word
    embeddings and its row gathered to every input position holding it; the
    gather sums the gradients of repeated rows.
    """
    if any(len(seq) < 1 for seq in seqs):
        raise ValueError("cannot encode an empty candidate")
    keys = [tuple(seq.ids) for seq in seqs]
    # distinct sequences in the order encode_sequences stacks them (by length,
    # then first occurrence), so its rows need no reordering
    unique = sorted(dict.fromkeys(keys), key=len)
    row_of = {key: r for r, key in enumerate(unique)}
    mapping = [row_of[key] for key in keys]
    rows = encode_sequences(params.word_embeddings, unique, params)
    if mapping == list(range(len(seqs))):
        return rows
    return gather_rows(rows, mapping)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(named: dict[str, Tensor], prefix) -> None:
    """Write ``<prefix>.bin``, then ``<prefix>.manifest.json``.

    Each file is written and synced to a temporary file in the same
    directory first; only when both are complete are they moved into place
    with ``os.replace``, blob first. A save that fails while writing leaves
    the previous checkpoint untouched.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    names = sorted(named)
    manifest: dict = {"names": names, "shapes": {}, "offsets": {}}
    blob = bytearray()
    for name in names:
        arr = named[name].data
        manifest["shapes"][name] = list(arr.shape)
        manifest["offsets"][name] = len(blob)
        blob += arr.astype("<f8").tobytes()
    manifest["total_bytes"] = len(blob)
    manifest["sha256"] = hashlib.sha256(blob).hexdigest()
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    files = [(Path(f"{prefix}.bin"), bytes(blob)),
             (Path(f"{prefix}.manifest.json"), text.encode("utf-8"))]
    temps = []
    try:
        for path, data in files:
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            with open(temps[-1], "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def load_checkpoint(prefix) -> dict[str, np.ndarray]:
    """Read a checkpoint, checking the manifest against the blob first.

    Names must be sorted and unique, every shape a list of non-negative
    integers, the arrays must tile the blob exactly in manifest order, and
    the blob's sha256 must be the manifest's: a blob from another save, such
    as one a crash between the two moves of a save left beside the previous
    manifest, does not load. A manifest that breaks any of these raises
    ``ValueError`` naming the file.
    """
    path = f"{prefix}.manifest.json"
    with open(path, encoding="utf-8") as f:
        text = f.read()
    blob = Path(f"{prefix}.bin").read_bytes()

    def bad(why: str) -> ValueError:
        return ValueError(f"corrupt checkpoint manifest {path}: {why}")

    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as e:
        raise bad(f"not JSON ({e})") from None
    if not isinstance(manifest, dict):
        raise bad("not a JSON object")
    for key in ("names", "shapes", "offsets", "total_bytes", "sha256"):
        if key not in manifest:
            raise bad(f"no {key!r}")
    names, shapes, offsets = manifest["names"], manifest["shapes"], manifest["offsets"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise bad("names must be a list of strings")
    if any(a >= b for a, b in zip(names, names[1:])):
        raise bad("names must be sorted and unique")
    if not isinstance(shapes, dict) or not isinstance(offsets, dict):
        raise bad("shapes and offsets must be objects")
    if set(shapes) != set(names) or set(offsets) != set(names):
        raise bad("shapes and offsets must name exactly the listed tensors")
    if manifest["total_bytes"] != len(blob):
        raise bad(f"total_bytes {manifest['total_bytes']} but {prefix}.bin holds {len(blob)}")
    if manifest["sha256"] != hashlib.sha256(blob).hexdigest():
        raise bad(f"sha256 does not match {prefix}.bin")
    out = {}
    end = 0
    for name in names:
        shape = shapes[name]
        if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
            raise bad(f"shape of {name} is not a list of non-negative integers")
        if offsets[name] != end or not _is_count(offsets[name]):
            raise bad(f"{name} starts at {offsets[name]}, expected {end}")
        count = math.prod(shape)
        if end + 8 * count > len(blob):
            raise bad(f"{name} runs past the end of the {len(blob)}-byte blob")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=end)
        out[name] = arr.astype(np.float64).reshape(shape)
        end += 8 * count
    if end != len(blob):
        raise bad(f"arrays cover {end} of the blob's {len(blob)} bytes")
    return out


def apply_checkpoint(named: dict[str, Tensor], loaded: dict[str, np.ndarray]) -> None:
    missing = sorted(set(named) - set(loaded))
    extra = sorted(set(loaded) - set(named))
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing={missing} extra={extra}")
    for name, t in named.items():
        if t.data.shape != loaded[name].shape:
            raise ValueError(
                f"checkpoint shape mismatch for {name}: "
                f"{loaded[name].shape} vs {t.data.shape}"
            )
        t.data[...] = loaded[name]
