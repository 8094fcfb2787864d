"""Compact pre-norm transformer encoder shared by the user and candidate sides.

The user side encodes the gated (weight-scaled) token embeddings of the
whole history, item by item in the order the gate's
:class:`gating.GroupedSelection` holds them, with learned positions assigned
globally over that sequence; the candidate side encodes the full, ungated
token sequence. Both pool to a single vector with a learned query
(weighted pooling aggregation, one :func:`numerics.attention_pool` node) and
share every parameter, including the word embedding table, which the gate
shares too. A pre-norm layer is :func:`numerics.layer_norm`,
:func:`numerics.attention`, residual add, layer norm,
:func:`numerics.feed_forward`, residual add: six tape nodes.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nm
from .numerics import Tensor, constant, gather_rows, tensor
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
        """sha256 over ``heads`` and every tensor the encoders read (name,
        shape and float64 bytes, by sorted name), read afresh on every call,
        so it changes with any edit to them, in place or not."""
        named = {"embed.word": self.word_embeddings, **self.named_tensors()}
        digest = hashlib.sha256(f"heads={self.heads}".encode("utf-8"))
        for name in sorted(named):
            arr = np.ascontiguousarray(named[name].data, dtype=np.float64)
            digest.update(f";{name}{arr.shape}".encode("utf-8"))
            digest.update(arr)
        return digest.hexdigest()


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
    """Run the pre-norm layer stack; with zero layers this is the identity.

    Accepts one sequence (n, d) or a stack of equal-length sequences
    (B, n, d); sequences in a stack never attend to each other. ``collect``,
    if given, receives each layer's (B, heads, n, n) attention maps.
    """
    single = x.data.ndim == 2
    if single:
        x = nm.reshape(x, (1, *x.data.shape))
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
    if single:
        x = nm.reshape(x, x.data.shape[1:])
    return x


def weighted_pool(x: Tensor, query: Tensor) -> Tensor:
    """Attention-style pooling with a learnable query: :func:`numerics.attention_pool`.

    (n, d) pools to (d,); a stack (B, n, d) pools each sequence to (B, d).
    """
    return nm.attention_pool(x, query)


def _with_positions(x: Tensor, params: TransformerParams) -> Tensor:
    n = x.data.shape[0]
    if n > params.max_positions:
        raise ValueError(
            f"sequence length {n} exceeds max positions {params.max_positions}"
        )
    return nm.add(x, nm.narrow(params.pos_embeddings, 0, 0, n))


def encode_user(rows: Tensor, params: TransformerParams) -> Tensor:
    """User embedding from one history's (T, d) gated rows.

    Positions 0..T-1 are added to the rows as they are (a
    :class:`gating.GroupedSelection`'s ``rows`` for one history), and the
    encoded rows are weight-pooled.
    """
    if rows.data.shape[0] == 0:
        raise ValueError("encode_user needs at least one selected token")
    encoded = encode_sequence(_with_positions(rows, params), params)
    return weighted_pool(encoded, params.pool_q)


def encode_candidate(seq: TokenSequence, params: TransformerParams) -> Tensor:
    """Candidate embedding from the full (ungated) token sequence."""
    if len(seq) < 1:
        raise ValueError("cannot encode an empty candidate")
    emb = gather_rows(params.word_embeddings, seq.ids)
    x = _with_positions(emb, params)
    encoded = encode_sequence(x, params)
    return weighted_pool(encoded, params.pool_q)


def encode_candidates(seqs: list[TokenSequence], params: TransformerParams) -> Tensor:
    """All candidate embeddings as one (B, d) tensor, batching equal-length
    sequences through the encoder together. Same math as
    :func:`encode_candidate` per row, far fewer ops.

    A candidate's embedding depends only on its token ids, so each distinct
    id sequence is encoded once and its row gathered to every input position
    holding it; the gather sums the gradients of repeated rows.
    """
    if not seqs:
        raise ValueError("no candidate sequences")
    row_of: dict[tuple[int, ...], int] = {}
    unique: list[TokenSequence] = []
    mapping: list[int] = []
    for seq in seqs:
        if len(seq) < 1:
            raise ValueError("cannot encode an empty candidate")
        key = tuple(seq.ids)
        row = row_of.get(key)
        if row is None:
            row = row_of[key] = len(unique)
            unique.append(seq)
        mapping.append(row)
    by_len: dict[int, list[int]] = {}
    for u, seq in enumerate(unique):
        by_len.setdefault(len(seq), []).append(u)
    chunks = []
    order: list[int] = []
    for L in sorted(by_len):
        members = by_len[L]
        ids = np.array([unique[u].ids for u in members], dtype=np.intp)
        emb = gather_rows(params.word_embeddings, ids)          # (G, L, d)
        if L > params.max_positions:
            raise ValueError(
                f"sequence length {L} exceeds max positions {params.max_positions}"
            )
        x = nm.add(emb, nm.narrow(params.pos_embeddings, 0, 0, L))
        encoded = encode_sequence(x, params)
        chunks.append(weighted_pool(encoded, params.pool_q))    # (G, d)
        order.extend(members)
    stacked = chunks[0] if len(chunks) == 1 else nm.concat_rows(chunks)
    # stacked row r holds unique sequence order[r]; input i wants mapping[i]
    index = np.argsort(order)[mapping]
    if np.array_equal(index, np.arange(len(seqs))):
        return stacked
    return gather_rows(stacked, index)


def score(user: Tensor, cand: Tensor) -> Tensor:
    """Scaled inner product z = <u, c> / sqrt(d)."""
    if user.data.shape != cand.data.shape:
        raise ValueError(
            f"score dim mismatch: {user.data.shape} vs {cand.data.shape}"
        )
    d = user.data.shape[0]
    return nm.mul(nm.dot(user, cand), 1.0 / math.sqrt(d))


def click_loss(user: Tensor, positive: Tensor, negatives: list[Tensor]) -> Tensor:
    """Sampled-softmax click loss: -log p(positive | positive + negatives)."""
    if not negatives:
        raise ValueError("click_loss needs at least one negative")
    z_pos = score(user, positive)
    zs = [z_pos] + [score(user, n) for n in negatives]
    stacked = nm.concat_rows([nm.reshape(z, (1,)) for z in zs])
    return nm.sub(nm.logsumexp(stacked), z_pos)


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
