"""Call arguments are validated as given: no coercion, no silent clamping.

``inclusive`` is a bool, an explicit K is a power of two at any problem
size, and placement errors name the counts the caller passed. Anything
else is rejected with :class:`~repro.errors.ConfigurationError` at every
entry point (``repro.scan``, ``ScanSession`` and ``ScanService``). The
input is only read, read-only arrays included, and every call returns a
fresh output array the caller owns.
"""

import numpy as np
import pytest

from repro import scan
from repro.core.executor import build_executor
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.session import ScanSession
from repro.errors import ConfigurationError
from repro.interconnect.topology import tsubame_kfc

ENTRIES = ["scan", "session", "service"]


def _serve(entry: str, machine, data: np.ndarray, **kwargs) -> np.ndarray:
    """One 1-D request through ``entry``; returns its output row."""
    if entry == "scan":
        return scan(data, topology=machine, **kwargs).output[0]
    session = ScanSession(machine)
    if entry == "session":
        return session.scan(data, **kwargs).output[0]
    service = session.service(max_batch=4)
    ticket = service.submit(data, **kwargs)
    service.flush()
    return ticket.result()


class TestInclusiveIsABool:
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("inclusive", [
        "no", "yes", None, 0, 1, np.int64(1), 1.0, [True],
    ], ids=repr)
    def test_non_bool_rejected(self, machine, entry, inclusive):
        data = np.arange(1, 17, dtype=np.int32)
        with pytest.raises(ConfigurationError, match="inclusive must be a bool"):
            _serve(entry, machine, data, inclusive=inclusive)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("inclusive", [True, False, np.True_, np.False_],
                             ids=repr)
    def test_bool_and_numpy_bool_served(self, machine, entry, inclusive):
        data = np.arange(1, 17, dtype=np.int32)
        want = np.cumsum(data, dtype=np.int32)
        if not inclusive:
            want = np.concatenate(([0], want[:-1])).astype(np.int32)
        got = _serve(entry, machine, data, inclusive=inclusive)
        assert got.tobytes() == want.tobytes()

    def test_numpy_bool_shares_the_bool_entry(self, machine):
        session = ScanSession(machine)
        data = np.ones((2, 64), np.int32)
        for inclusive in (True, np.True_, False, np.False_):
            result = session.scan(data, proposal="sp", inclusive=inclusive)
            assert type(result.problem.inclusive) is bool
        assert (session.cached_configurations, session.misses) == (2, 2)

    def test_service_rejects_before_queueing(self, machine):
        service = ScanSession(machine).service()
        with pytest.raises(ConfigurationError):
            service.submit(np.ones(8, np.int32), inclusive="no")
        assert (service.submitted, service.depth) == (0, 0)

    def test_problem_config_normalises(self):
        problem = ProblemConfig(n=4, inclusive=np.False_)
        assert problem.inclusive is False
        with pytest.raises(ConfigurationError):
            ProblemConfig(n=4, inclusive=None)


class TestExplicitK:
    @pytest.mark.parametrize("shape", [(4, 1 << 10), (4, 1 << 14)],
                             ids=["clamped", "unclamped"])
    @pytest.mark.parametrize("entry", ["scan", "estimate"])
    def test_non_power_of_two_rejected_at_any_size(self, machine, shape,
                                                   entry):
        """K=3 on 4x2^10 used to be clamped to one chunk and served as
        K=1; on 4x2^14 it raised. Both now raise."""
        session = ScanSession(machine)
        with pytest.raises(ConfigurationError, match="K must be a power of two"):
            if entry == "scan":
                session.scan(np.ones(shape, np.int32), proposal="sp", K=3)
            else:
                session.estimate(
                    ProblemConfig.from_sizes(N=shape[1], G=shape[0]),
                    proposal="sp", K=3,
                )

    @pytest.mark.parametrize("entry", ["scan", "estimate"])
    def test_bool_rejected(self, machine, entry):
        session = ScanSession(machine)
        with pytest.raises(ConfigurationError, match="K must be an int"):
            if entry == "scan":
                session.scan(np.ones((4, 1 << 10), np.int32), K=True)
            else:
                session.estimate(ProblemConfig.from_sizes(N=1 << 10, G=4),
                                 K=True)

    def test_resolver_checks_before_clamping(self, machine):
        sp = build_executor("sp", machine, NodeConfig.from_counts(1, 1), K=3)
        with pytest.raises(ConfigurationError, match="K must be a power of two"):
            sp.run(np.ones((4, 1 << 10), np.int32))

    def test_power_of_two_still_clamped(self, machine):
        result = ScanSession(machine).scan(np.ones((4, 1 << 10), np.int32),
                                           proposal="sp", K=4)
        assert result.config["K"] == 1


class TestPlacementCounts:
    def test_v_above_w_names_the_counts(self, machine):
        with pytest.raises(ConfigurationError) as info:
            scan(np.ones(1 << 12, np.int32), topology=machine,
                 proposal="mps", W=4, V=8)
        assert str(info.value) == (
            "V cannot exceed W: V=8, W=4 (W = Y*V with Y >= 1)")

    def test_node_config_from_counts(self):
        with pytest.raises(ConfigurationError, match="V=2, W=1"):
            NodeConfig.from_counts(W=1, V=2)


#: (proposal, placement, nodes) of every registered proposal.
OWNERSHIP_CALLS = [
    ("sp", {}, 1),
    ("sp-dlb", {}, 1),
    ("chained", {}, 1),
    ("pp", {"W": 4}, 1),
    ("mps", {"W": 4, "V": 4}, 1),
    ("mppc", {"W": 8, "V": 4}, 1),
    ("mn-mps", {"W": 4, "V": 4, "M": 2}, 2),
]


class TestOwnership:
    """The input is only read, and ``result.output`` is a fresh array
    the caller owns: the kernels scan the call's result array in place,
    so neither may alias the other or a later call's result."""

    @staticmethod
    def _read_only(dtype) -> np.ndarray:
        data = np.random.default_rng(5).integers(-9, 9, (4, 1 << 12))
        data = data.astype(dtype)
        data.setflags(write=False)
        return data

    @pytest.mark.parametrize("inclusive", [True, False], ids=["inc", "exc"])
    @pytest.mark.parametrize("dtype", [np.int32, np.float32])
    @pytest.mark.parametrize("proposal,spec,nodes", OWNERSHIP_CALLS,
                             ids=[call[0] for call in OWNERSHIP_CALLS])
    def test_read_only_input_is_scanned_and_left_unchanged(
        self, proposal, spec, nodes, dtype, inclusive
    ):
        data = self._read_only(dtype)
        before = data.tobytes()
        want = np.cumsum(data, axis=1, dtype=dtype)
        if not inclusive:
            want = np.concatenate(
                (np.zeros((data.shape[0], 1), dtype), want[:, :-1]), axis=1)
        machine = tsubame_kfc(nodes)
        machine.enable_buffer_pooling()
        session = ScanSession(machine)
        outputs = []
        for _ in range(3):  # cold, then warm calls of a held program
            result = session.scan(data, proposal=proposal,
                                  inclusive=inclusive, **spec)
            assert result.output.tobytes() == want.tobytes()
            assert result.output.flags.owndata and result.output.flags.writeable
            assert not np.shares_memory(result.output, data)
            outputs.append(result.output)
        assert data.tobytes() == before
        outputs[0][...] = 0  # the caller owns it: no later call sees this
        assert outputs[1].tobytes() == outputs[2].tobytes() == want.tobytes()
        assert not np.shares_memory(outputs[1], outputs[2])

    @pytest.mark.parametrize("proposal,spec,nodes", OWNERSHIP_CALLS,
                             ids=[call[0] for call in OWNERSHIP_CALLS])
    def test_read_only_input_through_repro_scan(self, proposal, spec, nodes):
        data = self._read_only(np.int64)
        before = data.tobytes()
        result = scan(data, topology=tsubame_kfc(nodes), proposal=proposal,
                      **spec)
        assert result.output.tobytes() == np.cumsum(
            data, axis=1, dtype=data.dtype).tobytes()
        assert data.tobytes() == before
        assert not np.shares_memory(result.output, data)
