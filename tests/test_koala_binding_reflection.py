"""Tests for configurations, bindings, and the aspect weaver."""

import pytest

from repro.koala import (
    Aspect,
    Component,
    ComponentError,
    Configuration,
    InterfaceType,
    JoinPoint,
    Weaver,
)

IPing = InterfaceType("IPing").operation("ping")
IPong = InterfaceType("IPong").operation("pong")


class Server(Component):
    def configure(self):
        self.provide("ping", IPing)

    def op_ping_ping(self):
        return "pong"


class Client(Component):
    def configure(self):
        self.require("ping", IPing)


def make_config():
    config = Configuration("net")
    config.add(Server("server"))
    config.add(Client("client"))
    config.bind("client", "ping", "server", "ping")
    return config


class TestConfiguration:
    def test_bind_and_call(self):
        config = make_config()
        assert config.get("client").call("ping", "ping") == "pong"

    def test_duplicate_component_rejected(self):
        config = Configuration("c")
        config.add(Server("s"))
        with pytest.raises(ComponentError):
            config.add(Server("s"))

    def test_interface_mismatch_rejected(self):
        config = Configuration("c")

        class WrongServer(Component):
            def configure(self):
                self.provide("pong", IPong)

            def op_pong_pong(self):
                return None

        config.add(WrongServer("server"))
        config.add(Client("client"))
        with pytest.raises(ComponentError):
            config.bind("client", "ping", "server", "pong")

    def test_double_bind_rejected(self):
        config = make_config()
        config.add(Server("server2"))
        with pytest.raises(ComponentError):
            config.bind("client", "ping", "server2", "ping")

    def test_unbind_then_rebind(self):
        config = make_config()
        config.add(Server("server2"))
        config.unbind("client", "ping")
        config.bind("client", "ping", "server2", "ping")
        assert config.get("client").call("ping", "ping") == "pong"

    def test_validate_reports_unbound(self):
        config = Configuration("c")
        config.add(Client("client"))
        problems = config.validate()
        assert len(problems) == 1
        assert "client.ping" in problems[0]

    def test_validate_clean_config(self):
        assert make_config().validate() == []

    def test_start_stop_all(self):
        config = make_config()
        config.start_all()
        assert all(c.lifecycle == Component.STARTED for c in config)
        config.stop_all()
        assert all(c.lifecycle == Component.STOPPED for c in config)

    def test_dependency_graph_edges(self):
        config = make_config()
        graph = config.dependency_graph()
        assert "server" in graph["client"]

    def test_dependents_of(self):
        config = make_config()
        assert config.dependents_of("server") == ["client"]
        assert config.dependents_of("client") == []


class TestWeaver:
    def test_before_and_after_advice(self):
        config = make_config()
        weaver = Weaver(config)
        log = []
        aspect = Aspect(
            "trace",
            JoinPoint(component="server"),
            before=lambda ctx: log.append(("before", ctx.operation)),
            after=lambda ctx: log.append(("after", ctx.result)),
        )
        weaver.weave(aspect)
        config.get("client").call("ping", "ping")
        assert log == [("before", "ping"), ("after", "pong")]
        assert aspect.activations == 1

    def test_around_advice_controls_result(self):
        config = make_config()
        weaver = Weaver(config)
        aspect = Aspect(
            "cap",
            JoinPoint(operation="ping"),
            around=lambda ctx, proceed: proceed().upper(),
        )
        weaver.weave(aspect)
        assert config.get("client").call("ping", "ping") == "PONG"

    def test_joinpoint_wildcards(self):
        jp = JoinPoint(component="ttx*", operation="render*")
        assert jp.matches("ttx_rend", "p", "rendered_page")
        assert not jp.matches("audio", "p", "rendered_page")
        assert not jp.matches("ttx_rend", "p", "hide")

    def test_nonmatching_calls_untouched(self):
        config = make_config()
        weaver = Weaver(config)
        count = []
        weaver.weave(
            Aspect(
                "selective",
                JoinPoint(operation="not_ping"),
                before=lambda ctx: count.append(1),
            )
        )
        config.get("client").call("ping", "ping")
        assert count == []

    def test_unweave_removes_advice(self):
        config = make_config()
        weaver = Weaver(config)
        count = []
        weaver.weave(
            Aspect("c", JoinPoint(), before=lambda ctx: count.append(1))
        )
        config.get("client").call("ping", "ping")
        removed = weaver.unweave("c")
        assert removed >= 1
        config.get("client").call("ping", "ping")
        assert len(count) == 1

    def test_after_advice_sees_errors(self):
        config = Configuration("err")

        class Crasher(Component):
            def configure(self):
                self.provide("ping", IPing)

            def op_ping_ping(self):
                raise RuntimeError("boom")

        config.add(Crasher("server"))
        config.add(Client("client"))
        config.bind("client", "ping", "server", "ping")
        weaver = Weaver(config)
        seen = []
        weaver.weave(
            Aspect("watch", JoinPoint(), after=lambda ctx: seen.append(ctx.error))
        )
        with pytest.raises(RuntimeError):
            config.get("client").call("ping", "ping")
        assert isinstance(seen[0], RuntimeError)
