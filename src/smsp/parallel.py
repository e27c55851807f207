"""Deterministic multi-process engine for the sequential Monte Carlo sampler.

Particles are distributed over persistent worker processes by index (particle i
lives on worker i mod W) and stay resident across rounds; only weight
increments, and full states on resampling rounds, cross process boundaries.
Every random draw comes from a generator derived by counter from
(seed, stream, particle index, round index), so results are bit-identical for
any worker count.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import pickle

import numpy as np

from .likelihood import weight_increment
from .partition import PartitionState, Subset, init_partition, strip_members, advance

_PARTICLE_STREAM = 0
_RESAMPLE_STREAM = 1


def particle_rng(seed: int, particle: int, round_index: int):
    """Generator for one particle's transition in one round."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, _PARTICLE_STREAM, particle, round_index])
    )


def resample_rng(seed: int, round_index: int):
    return np.random.default_rng(
        np.random.SeedSequence([seed, _RESAMPLE_STREAM, round_index])
    )


def clone_state(state: PartitionState) -> PartitionState:
    """Independent copy sharing the immutable payload arrays.

    Count/member/center arrays and cut objects are never mutated in place by
    the process, so clones only need fresh Subset shells and fresh containers.
    """
    subsets = [
        Subset(
            id=s.id,
            constraint_path=s.constraint_path,
            members=s.members,
            counts=s.counts,
            center=s.center,
            radius=s.radius,
            paused=s.paused,
            cut_failed=s.cut_failed,
        )
        for s in state.subsets
    ]
    return PartitionState(
        label_values=state.label_values,
        xy=state.xy,
        codes=state.codes,
        subsets=subsets,
        cuts=list(state.cuts),
        splits=dict(state.splits),
        leaves=list(state.leaves),
        elapsed=state.elapsed,
    )


def _dumps_detached(state: PartitionState) -> bytes:
    # the dataset arrays are shard-local; never ship them with a particle
    xy, codes = state.xy, state.codes
    state.xy = None
    state.codes = None
    try:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        state.xy = xy
        state.codes = codes


class _Shard:
    """The particles owned by one worker (or by the inline engine)."""

    def __init__(self, payload: dict):
        self.xy = payload["xy"]
        self.codes = payload["codes"]
        self.label_values = payload["label_values"]
        self.indices = list(payload["indices"])
        self.seed = payload["seed"]
        self.budget = payload["budget"]
        self.max_cuts = payload["max_cuts"]
        self.cut_cfg = payload["cut_cfg"]
        self.alpha = payload["alpha"]
        template = payload["template"]
        self.states = {}
        for i in self.indices:
            st = clone_state(template)
            st.xy = self.xy
            st.codes = self.codes
            self.states[i] = st
        self.active = set(self.indices)

    def advance_round(self, round_index: int) -> dict:
        out = {}
        for i in self.indices:
            if i not in self.active:
                continue
            st = self.states[i]
            rng = particle_rng(self.seed, i, round_index)
            advance(st, self.budget, self.cut_cfg, rng)
            ev = st.last_event
            if ev.kind == "cut":
                inc = weight_increment(
                    ev.parent_counts, ev.below_counts, ev.above_counts, self.alpha
                )
            else:
                inc = 0.0
            done = ev.kind in ("budget", "extinct") or (
                self.max_cuts is not None and st.n_cuts >= self.max_cuts
            )
            if done:
                self.active.discard(i)
            out[i] = (inc, done)
        return out

    def gather_blobs(self, indices) -> dict:
        return {i: _dumps_detached(self.states[i]) for i in indices}

    def scatter(self, assignments, blobs) -> None:
        """assignments: [(dest index, ancestor key, still_active)]; blobs: key -> bytes or state."""
        cache = {}
        for key, blob in blobs.items():
            st = pickle.loads(blob) if isinstance(blob, (bytes, bytearray)) else blob
            st.xy = self.xy
            st.codes = self.codes
            cache[key] = st
        for dest, key, active in assignments:
            st = clone_state(cache[key])
            st.xy = self.xy
            st.codes = self.codes
            self.states[dest] = st
            if active:
                self.active.add(dest)
            else:
                self.active.discard(dest)

    def finalize(self, as_bytes: bool) -> dict:
        out = {}
        for i in self.indices:
            st = strip_members(self.states[i])
            out[i] = _dumps_detached(st) if as_bytes else st
        return out


def _worker_main(conn):
    try:
        shard = _Shard(conn.recv())
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance":
                conn.send(shard.advance_round(msg[1]))
            elif cmd == "gather":
                conn.send(shard.gather_blobs(msg[1]))
            elif cmd == "scatter":
                shard.scatter(msg[1], msg[2])
                conn.send(("ok",))
            elif cmd == "final":
                conn.send(shard.finalize(as_bytes=True))
            elif cmd == "stop":
                return
    except Exception as exc:
        # the parent shuts the pool down and raises exc's type with its message
        with contextlib.suppress(OSError):
            conn.send(("error", type(exc), str(exc)))
    finally:
        conn.close()


def ess(weights) -> float:
    """Effective sample size 1 / sum(w^2) of normalized weights."""
    w = np.asarray(weights, dtype=float)
    return 1.0 / float(np.sum(w * w))


def normalized_weights(log_weights) -> np.ndarray:
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - lw.max())
    return w / w.sum()


def multinomial_resample(weights, rng, size=None) -> np.ndarray:
    """Ancestor indices from one multinomial draw over the weights."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    n = len(w) if size is None else int(size)
    counts = rng.multinomial(n, w)
    return np.repeat(np.arange(len(w)), counts)


class SMCEngine:
    """Runs the resample / propagate / weight loop over sharded particles."""

    def __init__(self, data, smc_cfg, cut_cfg, alpha):
        self.cfg = smc_cfg
        self.cut_cfg = cut_cfg
        self.alpha = np.asarray(alpha, dtype=float)
        xy = np.asarray(data.xy, dtype=float)
        template = init_partition(data)
        codes = template.codes
        label_values = template.label_values
        self.label_values = label_values
        m = smc_cfg.n_particles
        w = min(smc_cfg.n_workers, m)
        self.n_workers = w
        self.owner = np.arange(m) % w
        self.shard_indices = [list(range(k, m, w)) for k in range(w)]

        def payload(indices):
            return {
                "xy": xy,
                "codes": codes,
                "label_values": label_values,
                "indices": indices,
                "seed": smc_cfg.seed,
                "budget": smc_cfg.budget,
                "max_cuts": smc_cfg.max_cuts,
                "cut_cfg": cut_cfg,
                "alpha": self.alpha,
                "template": template,
            }

        self.inline_shard = None
        self.pipes = []
        self.procs = []
        if w == 1:
            self.inline_shard = _Shard(payload(self.shard_indices[0]))
        else:
            ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context("spawn")
            for k in range(w):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
                proc.start()
                child.close()
                parent.send(payload(self.shard_indices[k]))
                self.pipes.append(parent)
                self.procs.append(proc)
            for parent in self.pipes:
                self._recv(parent)  # ready

    # ---- shard RPC (uniform over inline and process shards) ----

    def _recv(self, pipe):
        reply = pipe.recv()
        if type(reply) is tuple and reply[0] == "error":
            self.close()
            raise reply[1](reply[2])
        return reply

    def _advance_all(self, round_index):
        if self.inline_shard is not None:
            return self.inline_shard.advance_round(round_index)
        for pipe in self.pipes:
            pipe.send(("advance", round_index))
        merged = {}
        for pipe in self.pipes:
            merged.update(self._recv(pipe))
        return merged

    def _resample(self, ancestors, still_active):
        if self.inline_shard is not None:
            shard = self.inline_shard
            needed = sorted(set(int(a) for a in ancestors))
            blobs = {a: shard.states[a] for a in needed}
            assignments = [
                (i, int(a), bool(still_active[i])) for i, a in enumerate(ancestors)
            ]
            shard.scatter(assignments, blobs)
            return
        needed = sorted(set(int(a) for a in ancestors))
        by_shard = {}
        for a in needed:
            by_shard.setdefault(int(self.owner[a]), []).append(a)
        for w, idxs in by_shard.items():
            self.pipes[w].send(("gather", idxs))
        blobs = {}
        for w in by_shard:
            blobs.update(self._recv(self.pipes[w]))
        for w in range(self.n_workers):
            assignments = [
                (i, int(ancestors[i]), bool(still_active[i]))
                for i in self.shard_indices[w]
            ]
            needed_here = {int(ancestors[i]) for i in self.shard_indices[w]}
            self.pipes[w].send(("scatter", assignments, {a: blobs[a] for a in needed_here}))
        for w in range(self.n_workers):
            self._recv(self.pipes[w])

    def _finalize(self):
        if self.inline_shard is not None:
            return self.inline_shard.finalize(as_bytes=False)
        for pipe in self.pipes:
            pipe.send(("final",))
        merged = {}
        for pipe in self.pipes:
            merged.update(self._recv(pipe))
        return {i: pickle.loads(blob) for i, blob in merged.items()}

    def close(self):
        if self.inline_shard is not None:
            self.inline_shard = None
            return
        for pipe in self.pipes:
            try:
                pipe.send(("stop",))
                pipe.close()
            except (OSError, BrokenPipeError):
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
        self.pipes = []
        self.procs = []

    # ---- main loop ----

    def run(self):
        """Returns (states, log_weights, n_rounds, n_resamples)."""
        m = self.cfg.n_particles
        log_w = np.zeros(m)
        finished = np.zeros(m, dtype=bool)
        round_index = 0
        n_resamples = 0
        try:
            while not finished.all():
                w = normalized_weights(log_w)
                if ess(w) < self.cfg.ess_threshold * m:
                    rng = resample_rng(self.cfg.seed, round_index)
                    ancestors = multinomial_resample(w, rng, size=m)
                    finished = finished[ancestors]
                    self._resample(ancestors, ~finished)
                    log_w = np.zeros(m)
                    n_resamples += 1
                results = self._advance_all(round_index)
                for i, (inc, done) in results.items():
                    log_w[i] += inc
                    if done:
                        finished[i] = True
                round_index += 1
            states_map = self._finalize()
        finally:
            self.close()
        states = [states_map[i] for i in range(m)]
        return states, log_w, round_index, n_resamples
