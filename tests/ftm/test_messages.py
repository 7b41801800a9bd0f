"""The FTM message types: named tuples with the dataclass-style surface."""

import pytest

from repro.ftm import ClientReply, ClientRequest, PeerEnvelope, deploy_ftm_pair
from repro.kernel import World


def test_repr_keeps_the_dataclass_format():
    request = ClientRequest(request_id=1, client="c", payload=("add", 2),
                            reply_to="client", reply_port="replies")
    assert repr(request) == (
        "ClientRequest(request_id=1, client='c', payload=('add', 2), "
        "reply_to='client', reply_port='replies')"
    )
    assert repr(ClientReply(request_id=1, value=3, served_by="alpha")) == (
        "ClientReply(request_id=1, value=3, served_by='alpha', "
        "replayed=False, error=None)"
    )
    assert repr(PeerEnvelope(kind="notify", request_id=4)) == (
        "PeerEnvelope(kind='notify', request_id=4, client='', body=None, "
        "reply_to='', reply_port='')"
    )


def test_keyword_construction_and_defaults():
    reply = ClientReply(request_id=2, value=None, served_by="beta", error="x")
    assert (reply.replayed, reply.error) == (False, "x")
    envelope = PeerEnvelope(kind="request", request_id=5, client="c",
                            body={"payload": 1})
    assert (envelope.reply_to, envelope.reply_port) == ("", "")
    assert envelope.body == {"payload": 1}
    with pytest.raises(TypeError):
        ClientRequest(request_id=1, client="c", payload=None)  # no defaults


@pytest.mark.parametrize("message, field", [
    (ClientRequest(1, "c", None, "", ""), "payload"),
    (ClientReply(1, None, "alpha"), "value"),
    (PeerEnvelope("checkpoint", 1), "body"),
])
def test_attribute_assignment_is_rejected(message, field):
    with pytest.raises(AttributeError):
        setattr(message, field, "changed")


def test_reply_ok():
    assert ClientReply(request_id=1, value=1, served_by="a").ok
    assert not ClientReply(request_id=1, value=None, served_by="a",
                           error="not-master").ok


def test_bare_request_handled_directly_keeps_its_payload():
    """A ClientRequest has its own ``payload``: handle must not unwrap it."""
    world = World(seed=5)
    world.add_nodes(["alpha", "beta", "client"])
    mailbox = world.network.bind("client", "replies")

    def scenario():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        request = ClientRequest(request_id=1, client="c-direct",
                                payload=("add", 5), reply_to="client",
                                reply_port="replies")
        yield from pair.master.composite.call("request", "handle", request)
        message = yield mailbox.get()
        return message.payload

    reply = world.run_process(scenario(), name="scenario")
    assert reply == ClientReply(request_id=1, value=5, served_by="alpha")
