"""Stand-alone sensor devices: fire alarm and temperature sensor.

These are the paper's cascade-effect examples (Section V-B): a forged
fire-alarm reading annoys the user; a forged temperature reading flips
an IFTTT-style rule that drives the air conditioning.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.device.base import DeviceFirmware
from repro.device.peripherals import SmokeDetector, Thermometer


class FireAlarm(DeviceFirmware):
    """A smoke alarm reporting concentration and alarm state."""

    model = "fire-alarm"
    firmware_version = "1.2.2"
    sensor_attribute = "_detector"

    def initial_state(self) -> Dict[str, Any]:
        self._detector = SmokeDetector(self.env.rng.fork(f"smoke-{self.device_id}"))
        return {"on": True, "alarming": False}

    def read_telemetry(self) -> Dict[str, Any]:
        """Smoke concentration plus the alarm flag."""
        reading = self._detector.read()
        self.state["alarming"] = self._detector.is_alarm(reading)
        return {"smoke_ppm": reading, "alarm": self.state["alarming"]}

    def apply_command(self, command: str, arguments: Mapping[str, Any]) -> None:
        if command == "silence":
            self.state["alarming"] = False
        else:
            super().apply_command(command, arguments)


class TemperatureSensor(DeviceFirmware):
    """An ambient temperature sensor (drives rule-based automations)."""

    model = "temp-sensor"
    firmware_version = "1.0.9"
    sensor_attribute = "_thermo"

    def initial_state(self) -> Dict[str, Any]:
        self._thermo = Thermometer(self.env.rng.fork(f"thermo-{self.device_id}"))
        return {"on": True}

    def read_telemetry(self) -> Dict[str, Any]:
        return {"temperature_c": self._thermo.read(self.env.now)}
