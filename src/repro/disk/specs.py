"""Disk drive specifications (the paper's Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import ConfigError
from repro.units import GB, MB, MS

__all__ = ["DiskSpec", "ST3500630AS", "WD10EADS"]


@dataclass(frozen=True)
class DiskSpec:
    """Physical and power characteristics of one disk drive model.

    All times in seconds, sizes in bytes, power in watts.  Matches the rows
    of the paper's Table 2.
    """

    model: str
    capacity: float
    transfer_rate: float
    avg_seek_time: float
    avg_rotation_time: float
    rotational_speed_rpm: float
    idle_power: float
    standby_power: float
    active_power: float
    seek_power: float
    spinup_power: float
    spindown_power: float
    spinup_time: float
    spindown_time: float
    interface: str = "SATA"

    def __post_init__(self) -> None:
        for name in (
            "capacity",
            "transfer_rate",
            "avg_seek_time",
            "avg_rotation_time",
            "idle_power",
            "standby_power",
            "active_power",
            "seek_power",
            "spinup_power",
            "spindown_power",
            "spinup_time",
            "spindown_time",
        ):
            value = getattr(self, name)
            if not value >= 0:  # also rejects NaN
                raise ConfigError(
                    f"DiskSpec.{name} must be non-negative, got {value!r}"
                )
        if self.standby_power >= self.idle_power:
            raise ConfigError(
                "standby power must be below idle power, otherwise spinning "
                "down can never save energy"
            )
        if self.transfer_rate <= 0 or self.capacity <= 0:
            raise ConfigError("capacity and transfer rate must be positive")

    @property
    def access_overhead(self) -> float:
        """Positioning time per request: average seek + average rotation."""
        return self.avg_seek_time + self.avg_rotation_time

    @property
    def spindown_energy(self) -> float:
        """Energy of one spin-down transition (J)."""
        return self.spindown_power * self.spindown_time

    @property
    def spinup_energy(self) -> float:
        """Energy of one spin-up transition (J)."""
        return self.spinup_power * self.spinup_time

    @property
    def transition_energy(self) -> float:
        """Energy of a full spin-down + spin-up cycle (J)."""
        return self.spindown_energy + self.spinup_energy

    def breakeven_threshold(self) -> float:
        """The break-even idleness threshold (Table 2's 53.3 s).

        Time the disk must stay in standby so that the power saved
        (idle minus standby) repays the spin-down + spin-up energy:

        ``(E_down + E_up) / (P_idle - P_standby)``.
        """
        return self.transition_energy / (self.idle_power - self.standby_power)

    def transfer_time(self, size: float) -> float:
        """Pure data-transfer time for ``size`` bytes."""
        return size / self.transfer_rate

    def with_overrides(self, **kwargs) -> "DiskSpec":
        """A copy of this spec with some fields replaced."""
        return replace(self, **kwargs)

    def table2_rows(self) -> Dict[str, str]:
        """The paper's Table 2, regenerated from this spec."""
        return {
            "Disk model": self.model,
            "Standard interface": self.interface,
            "Rotational speed": f"{self.rotational_speed_rpm:.0f} rpm",
            "Avg. seek time": f"{self.avg_seek_time * 1e3:.1f} msecs",
            "Avg. rotation time": f"{self.avg_rotation_time * 1e3:.2f} msecs",
            "Disk size": f"{self.capacity / GB:.0f}GB",
            "Disk load (Transfer rate)": f"{self.transfer_rate / MB:.0f} MBytes/sec",
            "Idle power": f"{self.idle_power:.1f} Watts",
            "Standby power": f"{self.standby_power:.1f} Watts",
            "Active power": f"{self.active_power:.0f} Watts",
            "Seek power": f"{self.seek_power:.1f} Watts",
            "Spin up power": f"{self.spinup_power:.0f} Watts",
            "Spin down power": f"{self.spindown_power:.1f} Watts",
            "Spin up time": f"{self.spinup_time:.0f} secs",
            "Spin down time": f"{self.spindown_time:.0f} secs",
            "Idleness threshold": f"{self.breakeven_threshold():.1f} secs",
        }


#: The paper's disk: Seagate Barracuda 7200.10 ST3500630AS (Table 2).
ST3500630AS = DiskSpec(
    model="Seagate ST3500630AS",
    capacity=500 * GB,
    transfer_rate=72 * MB,
    avg_seek_time=8.5 * MS,
    avg_rotation_time=4.16 * MS,
    rotational_speed_rpm=7200,
    idle_power=9.3,
    standby_power=0.8,
    active_power=13.0,
    seek_power=12.6,
    spinup_power=24.0,
    spindown_power=9.3,
    spinup_time=15.0,
    spindown_time=10.0,
)

#: A newer-generation green drive (WD Caviar Green class): twice the
#: capacity, a faster sustained transfer rate, and roughly a third of the
#: Seagate's idle draw, at the price of slower positioning.  Its cheap,
#: quick spin transitions pull the break-even threshold (~46 s) below the
#: Seagate's 53.3 s — exactly the asymmetry heterogeneous placement and
#: per-disk DPM control exist to exploit (the ``mixed_generation`` fleet
#: preset in :mod:`repro.disk.fleet` pairs the two).
WD10EADS = DiskSpec(
    model="WD Caviar Green WD10EADS",
    capacity=1000 * GB,
    transfer_rate=100 * MB,
    avg_seek_time=12.0 * MS,
    avg_rotation_time=5.56 * MS,
    rotational_speed_rpm=5400,
    idle_power=2.8,
    standby_power=0.4,
    active_power=5.4,
    seek_power=6.0,
    spinup_power=12.0,
    spindown_power=2.8,
    spinup_time=8.0,
    spindown_time=5.0,
)
