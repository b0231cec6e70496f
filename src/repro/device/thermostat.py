"""A thermostat: sensor and actuator in one device.

Used by the automation tests as both a rule trigger (its temperature
reading) and a rule action (its setpoint) — the tightest version of the
paper's sensor-drives-AC cascade, where forged telemetry makes a device
fight itself.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.device.base import DeviceFirmware
from repro.device.peripherals import Thermometer


class Thermostat(DeviceFirmware):
    """A heating/cooling controller with an ambient sensor."""

    model = "thermostat"
    firmware_version = "3.3.0"
    sensor_attribute = "_thermo"

    def initial_state(self) -> Dict[str, Any]:
        self._thermo = Thermometer(self.env.rng.fork(f"thermo-{self.device_id}"))
        return {
            "on": True,
            "setpoint_c": 21.0,
            "mode": "auto",        # "auto" | "heat" | "cool" | "off"
        }

    def read_telemetry(self) -> Dict[str, Any]:
        """Ambient reading plus derived heating/cooling demand."""
        ambient = self._thermo.read(self.env.now)
        heating = (
            self.state["mode"] in ("auto", "heat")
            and ambient < self.state["setpoint_c"] - 0.5
        )
        cooling = (
            self.state["mode"] in ("auto", "cool")
            and ambient > self.state["setpoint_c"] + 0.5
        )
        return {
            "temperature_c": ambient,
            "setpoint_c": self.state["setpoint_c"],
            "heating": heating,
            "cooling": cooling,
        }

    def apply_command(self, command: str, arguments: Mapping[str, Any]) -> None:
        if command == "setpoint":
            target = float(arguments.get("celsius", 21.0))
            self.state["setpoint_c"] = max(5.0, min(35.0, target))
        elif command == "mode":
            mode = str(arguments.get("mode", "auto"))
            if mode in ("auto", "heat", "cool", "off"):
                self.state["mode"] = mode
        else:
            super().apply_command(command, arguments)
