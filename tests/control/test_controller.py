"""Unit tests for the controller's actuators."""

from repro.control import AdmissionGate
from repro.control.controller import REJECT_SIZE
from repro.net.packet import Message


class FakeSocket:
    def __init__(self):
        self.admission = None
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def test_disengaged_gate_admits_everything():
    gate = AdmissionGate()
    sock = FakeSocket()
    assert all(gate.admit(sock, Message(tag=i)) for i in range(10))
    assert gate.rejected == 0
    assert not sock.sent


def test_engaged_gate_sheds_a_deterministic_fraction():
    gate = AdmissionGate()
    gate.engaged = True
    sock = FakeSocket()
    decisions = [gate.admit(sock, Message(tag=i)) for i in range(10)]
    # Error accumulator: 0.5 (admit), 1.0 (reject), 0.5 (admit), ...
    assert decisions == [True, False] * 5
    assert gate.admitted == 5
    assert gate.rejected == 5
    assert [m.tag for m in sock.sent] == [1, 3, 5, 7, 9]
    assert all(m.payload == "rejected" for m in sock.sent)
    assert all(m.size == REJECT_SIZE for m in sock.sent)


def test_install_attaches_to_sockets():
    gate = AdmissionGate()
    sockets = [FakeSocket(), FakeSocket()]
    assert gate.install(sockets) is gate
    assert all(sock.admission is gate for sock in sockets)
