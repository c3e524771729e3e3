"""A :class:`GatewayClient` that can also put arbitrary bytes on the wire.

Malformed-request and pipelining tests need to send what no well-formed
client would, and to read responses without having sent a request
first; nothing outside the tests does either, so these helpers live
here rather than on the client itself.
"""

from __future__ import annotations

from repro.errors import GatewayError
from repro.gateway.client import ClientResponse, GatewayClient


class RawGatewayClient(GatewayClient):
    def send_raw(self, raw: bytes) -> ClientResponse:
        """Ship arbitrary bytes and read one response."""
        return self._round_trip(raw)

    def send_raw_nowait(self, raw: bytes) -> None:
        """Ship bytes without reading a response (pipelining)."""
        if self._sock is None:
            self._sock = self._connect()
        self._sock.sendall(raw)

    def read_response(self, head_only: bool = False) -> ClientResponse:
        """Read the next in-order response off the connection."""
        response = self._read_response(head_only=head_only)
        if not response.keep_alive:
            self.close()
        return response

    def metrics_text(self) -> str:
        response = self.get("/v1/metrics")
        if response.status != 200:
            raise GatewayError(
                f"/v1/metrics returned {response.status}")
        return response.text
