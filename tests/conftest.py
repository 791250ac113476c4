import warnings

import pytest
from hypothesis import strategies as st
from hypothesis.errors import NonInteractiveExampleWarning

from parley.endpoint import make_invitation_config
from parley.parser import parse_global, parse_local
from parley.store import ProtocolStore

# The running example: a user asks an aggregator for readings from an
# instrument; the instrument either supports the request (then a polling
# loop streams raw readings to the aggregator and formatted ones to the
# user until the instrument stops) or rejects it.
DAQ_GLOBAL_SRC = """
global protocol DataAquisition(role U, role A, role I) {
    Request(string:info) from U to A;
    Request(string:info) from A to I;
    choice at I {
        Support from I to A;
        rec Poll {
            Poll from A to I;
            choice at I {
                @{size(data) <= 512}
                Raw(data) from I to A;
                Formatted(data) from I to U;
                Poll;
            } or {
                Stop from I to A;
                Stop from A to U;
            }
        }
    } or {
        NotSupported from I to A;
        Stop from A to I;
        Stop from A to U;
    }
}
"""

# The aggregator's view, written by hand: it never sees Formatted, and every
# exchange is flipped to its own sends and receives.
DAQ_LOCAL_A_SRC = """
local protocol DataAquisition at A(role U, role A, role I) {
    Request(string:info) from U;
    Request(string:info) to I;
    choice at I {
        Support from I;
        rec Poll {
            Poll to I;
            choice at I {
                @{size(data) <= 512}
                Raw(data) from I;
                Poll;
            } or {
                Stop from I;
                Stop to U;
            }
        }
    } or {
        NotSupported from I;
        Stop to I;
        Stop to U;
    }
}
"""

DAQ_PRINCIPALS = {"U": "user", "A": "agg", "I": "instr"}


def pytest_collection_finish(session):
    # Hypothesis builds its Unicode character table the first time a text
    # strategy draws, which can take longer than its too_slow health check
    # allows one test. Building it here, after start-up and before any test
    # runs, keeps that cost out of every test.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonInteractiveExampleWarning)
        st.text(min_size=1).example()


class _Touches(list):
    """A per-thread list that records which thread indices are used."""

    def __init__(self, values, touched):
        super().__init__(values)
        self.touched = touched

    def __getitem__(self, index):
        self.touched.add(index)
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.touched.add(index)
        super().__setitem__(index, value)

    def __iter__(self):
        self.touched.update(range(len(self)))
        return super().__iter__()


@pytest.fixture()
def watch_threads():
    """Wrap a run's per-thread lists (cursors, pending, started) so that every
    thread id they are read or written at lands in ``touched``."""

    def watch(run, touched: set) -> set:
        for name in ("cursors", "pending", "started"):
            setattr(run, name, _Touches(getattr(run, name), touched))
        return touched

    return watch


@pytest.fixture(scope="session")
def daq_global():
    return parse_global(DAQ_GLOBAL_SRC)


@pytest.fixture(scope="session")
def daq_local_a():
    return parse_local(DAQ_LOCAL_A_SRC)


@pytest.fixture()
def daq_store(daq_global):
    store = ProtocolStore()
    store.register_global(daq_global)
    store.register_projections(daq_global)
    return store


@pytest.fixture()
def daq_config():
    return make_invitation_config("DataAquisition", DAQ_PRINCIPALS)
