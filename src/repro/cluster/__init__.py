"""Simulated cluster: hosts, vaults, caches, and the Centurion testbed.

This package models the machines the paper's performance study ran on
(§4: 16 dual-processor 400 MHz Pentium IIs with 256 MB RAM on 100 Mbps
switched Ethernet) plus the storage abstractions Legion needs: *vaults*
for persistent object state and per-host file caches for implementation
binaries and components.

All cost constants are centralized in :mod:`repro.cluster.calibration`
and are documented against the sentence of the paper they reproduce.
"""

from repro.cluster.calibration import Calibration
from repro.cluster.controller import ControllerContext, ReactiveController
from repro.cluster.failure_detector import HeartbeatFailureDetector
from repro.cluster.filecache import FileCache
from repro.cluster.host import CrashPlan, Host, HostDown, HostProcess
from repro.cluster.reconciler import Reconciler
from repro.cluster.relay import (
    HostRelay,
    build_relay_tree,
    deploy_relays,
    restore_relays,
)
from repro.cluster.supervisor import Supervisor
from repro.cluster.testbed import Testbed, build_centurion, build_lan, build_wan
from repro.cluster.vault import Vault

__all__ = [
    "Calibration",
    "ControllerContext",
    "CrashPlan",
    "FileCache",
    "HeartbeatFailureDetector",
    "Host",
    "HostDown",
    "HostProcess",
    "HostRelay",
    "ReactiveController",
    "Reconciler",
    "Supervisor",
    "Testbed",
    "Vault",
    "build_centurion",
    "build_lan",
    "build_relay_tree",
    "build_wan",
    "deploy_relays",
    "restore_relays",
]
