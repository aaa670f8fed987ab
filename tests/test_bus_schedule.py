"""The bus control plane's *schedule* is pinned, not just its replay.

``TestReplay`` and ``test_replay_is_byte_identical`` compare a run with
a second run of the same code, so a change that shifts every heartbeat
equally passes them.  Here every case's delivery log is compared with a
digest recorded **before** the control loop became an agenda (commit
69d6b0f, the sweep that stepped every node at every instant): the same
instants, the same step order, the same ``msg_id`` / tie-break sequence,
byte for byte.

``CASES`` is 25 seeded draws on each of three fleets, written out as
data so that nothing here depends on :mod:`random`'s stream.  After a
*deliberate* schedule change, re-measure the last two columns with::

    PYTHONPATH=src python tests/test_bus_schedule.py

The targeted classes below pin, one per mechanism, what the sweep used
to hide.  What they assert of the delivery log holds at the recording
commit too; what they assert of who was stepped is the agenda's.
"""

import collections
import functools
import hashlib
import pathlib

import pytest

from repro.config import ConfigurationEngine
from repro.dsl.json_spec import partial_from_json
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import (
    BusChaos,
    BusCoordinator,
    SlaveAgent,
    provision_partial_spec,
)
from repro.runtime import bus as busmod
from repro.sim.faults import LinkFaultPlan

#: The tutorial's db-then-app stack.
TWO_NODE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "stacks" / "two_node.json"
)

#: machines -> the fleet deployed (replicas round-robin over machines).
FLEETS = {
    4: FleetTopology(replicas=12, machines=4),
    12: FleetTopology(replicas=40, machines=12),
    32: FleetTopology(replicas=104, machines=32),
}

#: ``seed`` is the LinkFaultPlan's; ``crash_host`` indexes the sorted
#: hosts; ``records`` / ``sha256`` are ``len(bus.log)`` and the digest
#: of ``delivery_log()``.
Case = collections.namedtuple(
    "Case",
    "machines seed drop duplicate jitter partition_at partition_for "
    "failover_at crash_host crash_after crash_down_for jobs records sha256",
    defaults=(None, None),
)

CASES = [Case(*row) for row in [
    (4, 0, 0.05, 0.2, 0.0, None, 120.0, 400.0, 0, 2, 60.0, None, 1308,
     "eac594b35ee710edf081cd5eb9475585767c588d5a8c2e8fcd0ec2a36082551a"),
    (4, 1, 0.2, 0.0, 0.0, 30.0, 20.0, 400.0, 3, 6, 200.0, None, 1128,
     "22f046ea31d5ee5573208480306addae9c7ff37548837bf1fff2acfdc1d90826"),
    (4, 2, 0.0, 0.05, 0.0, 10.0, 20.0, 50.0, 1, 1, 25.0, None, 1434,
     "8a7621d2f07644a066828c5ca2d3f76544c821c97ed9545caaca71fa8556f641"),
    (4, 3, 0.05, 0.0, 0.5, 30.0, 120.0, None, None, 2, 200.0, 2, 627,
     "380bdcd6567031f9bdf188573435784b21b8b448eb7c06a4b508ae63126ccc57"),
    (4, 4, 0.2, 0.05, 3.0, 30.0, 120.0, 400.0, 3, 7, 60.0, None, 1162,
     "a25e19307e44f1ffe4764448c03289bf22936057e73fe1f1e23232efba4ee3a9"),
    (4, 5, 0.2, 0.0, 0.5, 10.0, 20.0, None, 0, 6, 25.0, 2, 618,
     "2898b730a044ff3822adedad0b2cf443012dfc601527325469121764a0f0aaea"),
    (4, 6, 0.0, 0.05, 3.0, 10.0, 20.0, None, 0, 9, 60.0, 2, 605,
     "c9d1ed32298e2b4cd0b09f984ddae3aa681860cfc2a9279d0ef0b60f81889522"),
    (4, 7, 0.2, 0.0, 0.0, None, 120.0, None, None, 5, 200.0, 2, 589,
     "42b2babfcd5a30b67b6a2453d07141ce465c8676da221d32a17c78296a0c4a11"),
    (4, 8, 0.0, 0.2, 0.0, 10.0, 20.0, None, 1, 7, 25.0, None, 1107,
     "46d070e47cf06dc7c4239daa278fca1122ce5706406488fcb174850663bcacdd"),
    (4, 9, 0.2, 0.05, 0.0, 10.0, 120.0, 400.0, None, 4, 60.0, None, 1193,
     "d589fcf7653f315d9a41ecf747f79405df863da93f70c082436bd53d5d961605"),
    (4, 10, 0.0, 0.2, 3.0, None, 20.0, 50.0, None, 9, 200.0, 2, 922,
     "3ed30aca084c5a74d1448222d4967f70e23d8b80a44f3c34b27c548e23f29dae"),
    (4, 11, 0.05, 0.0, 0.0, 30.0, 20.0, None, None, 3, 60.0, None, 946,
     "877024052ab1e90669a8d44e78c0cda4f042296da770f4d48c689f646d462edb"),
    (4, 12, 0.2, 0.0, 0.0, None, 120.0, None, 0, 1, 60.0, None, 969,
     "2e7bd769e1365f3f16910040784d9c6e976c47e3dc96f586a60df2f1ad892847"),
    (4, 13, 0.05, 0.2, 0.5, None, 120.0, None, None, 9, 200.0, None, 1151,
     "cfea65d9488969cfbd185e90df344837a6ee61acdb13ccca12da3f7e96602054"),
    (4, 14, 0.05, 0.05, 3.0, 10.0, 120.0, 50.0, 2, 1, 60.0, 2, 751,
     "23ab270f12952cf0b058d3430f4c8eced2986dd7b0af6a478d524ddca4a24a22"),
    (4, 15, 0.0, 0.05, 3.0, 10.0, 120.0, None, 3, 4, 200.0, None, 974,
     "f150c33c5e30c37fd1c4617558517bcb1c3ec8ecebcda2b34f1596df27700626"),
    (4, 16, 0.05, 0.2, 0.5, 10.0, 120.0, 400.0, 1, 7, 60.0, 2, 772,
     "bb5c10f48574030d24e1e7d0efc7d5fe308f43bb6e77bd9ed7acb7308e38245b"),
    (4, 17, 0.2, 0.05, 0.0, None, 20.0, 50.0, 0, 6, 25.0, 2, 793,
     "940d570f07f0403d29611457e90f2a973b3d22bc40d58e02496f13d9d97d6f4a"),
    (4, 18, 0.05, 0.05, 0.0, 30.0, 120.0, 50.0, None, 9, 200.0, 2, 813,
     "1917ee6f7464739006b426d760687bcfcac2e708c738846feea2d4478c023178"),
    (4, 19, 0.2, 0.0, 3.0, None, 120.0, 400.0, None, 9, 200.0, None, 1087,
     "0a42670a79bd4604580733508f768acd59fb2d4f4a73768c0bd5806caf750fd2"),
    (4, 20, 0.0, 0.05, 0.5, None, 20.0, None, 3, 1, 25.0, 2, 601,
     "4d97395a3f12189b770744b12efb95d8214238ceea103fd55aaed399e1b7512c"),
    (4, 21, 0.2, 0.0, 0.5, 10.0, 120.0, 400.0, None, 1, 200.0, None, 1112,
     "7a93065d44c1cfc445cbf3de6b8c334a273856e8162f279b65ee206af3324dbd"),
    (4, 22, 0.2, 0.0, 0.5, None, 20.0, None, None, 1, 60.0, None, 1010,
     "8db913dd38b50d486ac3caa5d50ee2cce5e32feb70fc3ce598065f53efbf1458"),
    (4, 23, 0.05, 0.0, 3.0, None, 20.0, None, None, 2, 25.0, None, 955,
     "afb476a108cb3d142258a4e775d6f635e5f3c2e4ace1c5af5247ccd8093ed9d1"),
    (4, 24, 0.0, 0.0, 0.0, 30.0, 20.0, 400.0, 3, 5, 200.0, 2, 634,
     "b1d5997bc49cbe3f99ff628e9468d7f1b78c0e615a71cfae987a6769a9e76f74"),
    (12, 0, 0.05, 0.2, 0.5, None, 120.0, 50.0, 6, 9, 200.0, 2, 2284,
     "54eb675b3ee69a64e9e909c02e10f53f77b73a1e5645a9827e482b917c97b05c"),
    (12, 1, 0.0, 0.2, 0.5, 10.0, 20.0, None, 6, 3, 200.0, 2, 1911,
     "2f1683a1a2dfa58116e4d48902e20f2b3df433630cc8a23c7ea5c9b0c95e3133"),
    (12, 2, 0.0, 0.05, 0.5, None, 120.0, 400.0, 5, 1, 60.0, 2, 1748,
     "d7361ca10ee364e4ee9299d968865cf89c86293c4f0485e6240ec5d69f052663"),
    (12, 3, 0.2, 0.05, 0.5, 30.0, 120.0, 400.0, None, 3, 60.0, 2, 1935,
     "6d853423d643be9d57618da27141855ddc2fec060f44a27577cd4692cf7255a2"),
    (12, 4, 0.05, 0.2, 0.5, 30.0, 20.0, None, 11, 4, 60.0, None, 1852,
     "ea82c6e666835afbb7a0d5481e1b17531702f558873c51c4ec3ed6c08aa3e0f7"),
    (12, 5, 0.05, 0.0, 0.0, 30.0, 20.0, 50.0, 8, 9, 25.0, None, 2243,
     "39aeceff323900bc130c8f4a71efd413306cdcdf9af2a17f9d573d6583fcc65b"),
    (12, 6, 0.05, 0.2, 0.0, 10.0, 120.0, 50.0, 8, 9, 25.0, 2, 1916,
     "8b8d5c0325781c82b580bef6ac4af12faecf4f8f9e8ebec661a99c6bbe469be7"),
    (12, 7, 0.0, 0.0, 3.0, 10.0, 20.0, 400.0, 5, 3, 200.0, 2, 1283,
     "fdb1479eb66876065949d5fc3e46922533e20c509b9933e1bfdb9bbea67696b7"),
    (12, 8, 0.2, 0.2, 3.0, None, 120.0, 400.0, None, 8, 60.0, 2, 2024,
     "9000587a11edf941f7385f3db6d5d0a0676623500b7c7cc176003fd9ec56c0e2"),
    (12, 9, 0.0, 0.2, 3.0, 30.0, 120.0, None, None, 4, 60.0, 2, 1658,
     "427ca783961efea42e379215a4ed27350c2f45b9a2fd63c251838fad4dc68eee"),
    (12, 10, 0.0, 0.0, 0.5, None, 120.0, 400.0, 8, 1, 60.0, 2, 1649,
     "ebb897437fc80b4adaf38d4edb3692ee04b0d5c014bbbda504c9eb8786b4bd1d"),
    (12, 11, 0.05, 0.05, 0.5, 10.0, 120.0, 400.0, 8, 6, 25.0, 2, 1891,
     "cfdb658fc17199f6aa6c9290f382d5d4c145563f2cc265e0affe039e3c6382aa"),
    (12, 12, 0.05, 0.05, 0.5, 10.0, 20.0, None, 5, 3, 60.0, 2, 1364,
     "dee8fbaff4df4e0bbf8585c4d4bb3e09947c9fd630331a44212f52f2cc2ffbb5"),
    (12, 13, 0.0, 0.0, 3.0, None, 20.0, 400.0, None, 2, 200.0, 2, 1277,
     "267c6b9c7a67ce5a65bcdf16e33e48b1500e63937c7dcdfe0e2c6265ed5bc432"),
    (12, 14, 0.05, 0.05, 3.0, 10.0, 120.0, None, 7, 3, 200.0, None, 1824,
     "e3b6c13bf306d5d42d315862b35cf95df800311802f2ec6d24a38d95b4f35ef5"),
    (12, 15, 0.0, 0.0, 0.5, 10.0, 20.0, None, 9, 9, 60.0, None, 1542,
     "3e822c776142a9b7be3ec11780dd844685684e49c7896615c5037f7d8afac86b"),
    (12, 16, 0.0, 0.2, 3.0, None, 20.0, None, 6, 3, 25.0, 2, 1934,
     "9ac1f4999bdb1f7c7278f93016582e21f7ac184fa08dabae57608986fcd32200"),
    (12, 17, 0.0, 0.0, 0.0, 10.0, 120.0, 400.0, 4, 7, 60.0, None, 1833,
     "6cb5634b52bed86fa602b3a1c052fd39619e022b1b02e7bc5b16c3888fca87da"),
    (12, 18, 0.2, 0.0, 0.5, 30.0, 120.0, 50.0, 3, 3, 25.0, None, 2698,
     "ae958feec8ed87a4eeaa75916dd1141b33d79c88fc3b47c2e612af0d48330a44"),
    (12, 19, 0.2, 0.2, 0.0, 10.0, 20.0, 400.0, 4, 8, 200.0, None, 1969,
     "6174feffaff9c9fcb938b6ff85734841994b76eb0550b30c89b98ddea719f5f7"),
    (12, 20, 0.05, 0.05, 0.5, 30.0, 120.0, 50.0, 6, 6, 25.0, 2, 1974,
     "137e3d8df4135fe3a4d68de73d71e8d2709369414d2bc239f55e7cfcc64112b2"),
    (12, 21, 0.05, 0.2, 3.0, None, 120.0, 50.0, 2, 9, 25.0, None, 3300,
     "af03e08859106224ead72f33adbb9da467d58fc3f9813cbc2df023175914310a"),
    (12, 22, 0.2, 0.0, 3.0, 10.0, 120.0, 400.0, 4, 1, 60.0, 2, 1849,
     "73a5d5ef30aa3a054ecf5e6b34ed176d4524421335308bfa14e56431fc09cbb4"),
    (12, 23, 0.0, 0.2, 3.0, None, 20.0, 400.0, 0, 4, 25.0, 2, 2008,
     "84dd8c6fd7ad9666a7a59f36793721310ca27a4eee26e1ea8820b4b4fb3468ce"),
    (12, 24, 0.0, 0.05, 0.0, 10.0, 20.0, 50.0, None, 4, 25.0, None, 2404,
     "b6c888cf590582cbaa6913e9b44bf6bc90da97b6ff90666a160ec73472e937db"),
    (32, 0, 0.0, 0.0, 3.0, 10.0, 20.0, 50.0, None, 1, 200.0, None, 9900,
     "490b9303cd88ad7a02610e34427be15f6e6b5822956584b52f02bc2068518198"),
    (32, 1, 0.05, 0.0, 3.0, 10.0, 120.0, 400.0, None, 1, 200.0, 2, 5054,
     "c6650dff853ee9c0d2ef00b74d813973d268b0a1e88b672b12e3661cf2ef4bf4"),
    (32, 2, 0.05, 0.2, 0.5, 10.0, 20.0, 400.0, None, 7, 60.0, 2, 5701,
     "b439019743795063a798863aa4ea021b91ed7792501ea0cc632e02be8cd5b1c5"),
    (32, 3, 0.05, 0.05, 3.0, None, 20.0, 50.0, None, 2, 60.0, 2, 6085,
     "f8be98c2df2330a33a4a8ca50a0192b890519fdac7e9b843578258d7012dcadc"),
    (32, 4, 0.2, 0.2, 3.0, None, 20.0, 400.0, 22, 2, 200.0, 2, 5683,
     "c2b78cd9001a0802175779d0b17c102f099a9ac89b13d70333f2e49bdc41181a"),
    (32, 5, 0.0, 0.2, 0.0, None, 20.0, 50.0, 29, 3, 60.0, 2, 7238,
     "cab3120bf8f514e37e4e5838bfbe45e8c2a810f88d2ca0a83713ac55b540eb53"),
    (32, 6, 0.2, 0.0, 0.0, 30.0, 120.0, 50.0, 15, 1, 25.0, None, 9711,
     "9ebb7ac5b5d309411708833164c3f3d6a5ff45ba02f779bb31f64596101fe3a8"),
    (32, 7, 0.2, 0.05, 0.0, None, 20.0, None, 24, 7, 60.0, None, 8193,
     "958ea3db52aaa9e251fdbd9bf83388a69b6ea8f177d69693ac8062f9ba8c6b88"),
    (32, 8, 0.2, 0.05, 0.5, 10.0, 120.0, None, 23, 2, 200.0, 2, 5278,
     "af6e114b84e6e3ef41a9a1a9678945bebbe816abd500971bf67cc9588d479155"),
    (32, 9, 0.05, 0.05, 3.0, None, 20.0, 50.0, 1, 2, 200.0, None, 10246,
     "9da97b7e014677938fdd15704d105ccca8b4600761351e59bff2c7d9a962a4fd"),
    (32, 10, 0.05, 0.0, 0.5, 10.0, 120.0, 50.0, None, 7, 25.0, None, 9693,
     "d77a0c06787de929d4ab2feac03acac79c08945942971675cd4691dbc7225f19"),
    (32, 11, 0.2, 0.0, 3.0, None, 20.0, 50.0, None, 6, 60.0, 2, 5817,
     "93fde4ec1101da3d15bdfd0e644777bbbc1eb929cbe348fa80ec1521159f0b03"),
    (32, 12, 0.2, 0.05, 3.0, None, 20.0, 50.0, 13, 2, 25.0, None, 10063,
     "dbfa194660f7f529a03f6cd706452fda01f0ed514a3c4822099d693e3610954e"),
    (32, 13, 0.0, 0.2, 0.5, 10.0, 120.0, 50.0, 17, 8, 200.0, 2, 6767,
     "a1da5c5485e0bf95ca96fbbf269f672ab9eff79e4283ae09e76282b381fa70a6"),
    (32, 14, 0.05, 0.0, 0.0, 10.0, 20.0, None, 1, 1, 60.0, 2, 4721,
     "9d16e9e65f7ac49085ddee9dd636aa3aa6730674db6a091b6214ce917c104cb8"),
    (32, 15, 0.2, 0.0, 3.0, 30.0, 20.0, None, None, 7, 200.0, 2, 4866,
     "f16dbe715fc0a2cf666d0981a7b29bd2c4a6a1c6be02aeba34237042e022f9fe"),
    (32, 16, 0.0, 0.2, 0.5, 30.0, 120.0, 400.0, 14, 2, 25.0, 2, 6061,
     "14dc6d660652578df4562b4e76fb2966a59071f46445d305f22f771f68955cf1"),
    (32, 17, 0.05, 0.05, 0.0, None, 120.0, 400.0, 2, 5, 60.0, None, 8336,
     "61ba15e3ea0dd932e64c6ce7e9f51a419d81b1a0baf5b055711fe3ee6252fa0c"),
    (32, 18, 0.0, 0.2, 0.0, 10.0, 20.0, None, 3, 8, 60.0, None, 9278,
     "b7637d168113f27ec8d504afe10648df0d282b84e1a422e4a3699614edf515d8"),
    (32, 19, 0.0, 0.2, 0.0, 30.0, 20.0, 50.0, 11, 4, 25.0, None, 12419,
     "881b3dad72a705c71fe16d6a91aaa1789671a2cd137ef0324170e64bb40dd75c"),
    (32, 20, 0.05, 0.05, 3.0, 10.0, 120.0, 400.0, 0, 2, 60.0, None, 8508,
     "54e62d9d983090fbff2babbd76e66c45700feb6661ff2cf4a29ff96e3da77290"),
    (32, 21, 0.0, 0.05, 0.0, 10.0, 20.0, 400.0, None, 5, 60.0, 2, 5036,
     "c2e7e726751537a8a80f4c50fd5cf682cd59d51cadc789613e1ee5caa76a4dc8"),
    (32, 22, 0.2, 0.0, 0.0, 30.0, 120.0, 400.0, 26, 9, 25.0, None, 8480,
     "8d655beda670e148ed4abb5aa89ab9ae912272b1af8976dd0806705321948528"),
    (32, 23, 0.05, 0.05, 3.0, None, 20.0, 50.0, 12, 9, 60.0, 2, 6124,
     "6a2cc9bf0d5f82c03d6fd86c1dd7b895fc68ab2fcb977ce86b82e4e8be09db70"),
    (32, 24, 0.0, 0.2, 3.0, 30.0, 120.0, 400.0, None, 1, 200.0, None, 9543,
     "f569fdad3c68b839efa0b80c89bec78fcac34d11d1869a97ae594d64e08de02a"),
]]


class Fleet:
    """One configured spec; every run deploys it into a fresh world."""

    def __init__(self, partial, registry=None) -> None:
        self.registry = registry or standard_registry()
        self.spec = ConfigurationEngine(
            self.registry, partition=True
        ).configure(partial).spec
        self.hosts = sorted(m.id for m in self.spec.machines())

    def deploy(self, *, faults=None, chaos=None, jobs=None):
        """The deployed system, with the bus it was deployed over (the
        coordinator's, reached here once) beside it as ``.bus``."""
        coordinator = BusCoordinator(
            self.registry, standard_infrastructure(), standard_drivers(),
            jobs=jobs, link_faults=faults,
        )
        deployment = coordinator.deploy(self.spec, chaos=chaos)
        deployment.bus = coordinator.bus
        return deployment

    def run_case(self, case):
        return self.deploy(
            faults=LinkFaultPlan(
                case.seed, drop=case.drop, duplicate=case.duplicate,
                jitter=case.jitter,
            ),
            chaos=BusChaos(
                partition_at=case.partition_at,
                partition_for=case.partition_for,
                failover_at=case.failover_at,
                crash_machine=(
                    None if case.crash_host is None
                    else self.hosts[case.crash_host]
                ),
                crash_after_actions=case.crash_after,
                crash_down_for=case.crash_down_for,
            ),
            jobs=case.jobs,
        )


@functools.lru_cache(maxsize=None)
def fleet_of(machines: int) -> Fleet:
    return Fleet(fleet_partial(FLEETS[machines]))


@functools.lru_cache(maxsize=None)
def two_waves() -> Fleet:
    """``dbnode`` is wave 0 and ``appnode`` wave 1, so ``appnode``'s
    agent idles -- nothing but its heartbeat timer -- through wave 0."""
    registry = standard_registry()
    partial = provision_partial_spec(
        registry, partial_from_json(TWO_NODE.read_text()),
        standard_infrastructure(),
    )
    return Fleet(partial, registry)


def log_digest(bus) -> str:
    return hashlib.sha256(bus.delivery_log().encode()).hexdigest()


def case_id(case) -> str:
    return f"m{case.machines}-s{case.seed}"


def assert_pinned(case):
    deployment = fleet_of(case.machines).run_case(case)
    assert deployment.is_deployed()
    assert (len(deployment.bus.log), log_digest(deployment.bus)) == (
        case.records, case.sha256
    )


class TestPinnedSchedules:
    @pytest.mark.parametrize(
        "case", [c for c in CASES if c.machines < 32], ids=case_id
    )
    def test_delivery_log_matches_recorded_digest(self, case):
        assert_pinned(case)

    @pytest.mark.fuzz
    @pytest.mark.parametrize(
        "case", [c for c in CASES if c.machines == 32], ids=case_id
    )
    def test_delivery_log_matches_recorded_digest_32_machines(self, case):
        assert_pinned(case)


def sends(bus, kind, sender=None):
    """The first copy of every ``kind`` message in send order, whatever
    became of it (the log is in resolution order)."""
    envelopes = {
        record.envelope.msg_id: record.envelope
        for record in reversed(bus.log)
        if record.envelope.kind == kind
        and sender in (None, record.envelope.sender)
    }
    return [envelopes[msg_id] for msg_id in sorted(envelopes)]


@pytest.fixture
def agent_steps(monkeypatch):
    """Every ``SlaveAgent.step`` the loop runs, as ``(agent, now,
    crashed on entry)``."""
    steps = []
    real = SlaveAgent.step

    def step(agent, now):
        steps.append((agent, now, agent.crashed))
        real(agent, now)

    monkeypatch.setattr(SlaveAgent, "step", step)
    return steps


class TestMailDoesNotMoveTheHeartbeat:
    def test_agent_woken_by_adopt_heartbeats_at_the_old_instant(
        self, agent_steps
    ):
        """ADOPT reaches the idle ``appnode`` agent at 12.05, strictly
        between its heartbeats at 10 and 15.  The mail step re-targets
        the agent and re-arms its timer -- for 15, not for 17.05."""
        deployment = two_waves().deploy(chaos=BusChaos(failover_at=12.0))
        assert deployment.is_deployed()
        beats = sends(deployment.bus, busmod.HEARTBEAT, "appnode")[:5]
        assert [e.sent_at for e in beats] == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert [e.recipient for e in beats] == \
            ["master"] * 3 + ["master-2"] * 2
        stepped_at = [
            now for agent, now, _ in agent_steps
            if agent.machine_id == "appnode" and now <= 20.0
        ]
        assert stepped_at == [0.0, 5.0, 10.0, 12.05, 15.0, 20.0]


class TestCrashedAgentSleepsUntilRejoin:
    def test_not_stepped_while_down_and_hellos_at_rejoin_at(
        self, agent_steps
    ):
        fleet = fleet_of(4)
        victim = fleet.hosts[1]
        deployment = fleet.deploy(
            chaos=BusChaos(
                crash_machine=victim, crash_after_actions=3,
                crash_down_for=25.0,
            )
        )
        assert deployment.is_deployed()
        assert deployment.report.crashes == 1
        agent = next(a for a, _, _ in agent_steps if a.machine_id == victim)
        [hello] = sends(deployment.bus, busmod.HELLO)
        assert (hello.sender, hello.sent_at) == (victim, agent.rejoin_at)
        assert [
            (a.machine_id, now) for a, now, crashed in agent_steps if crashed
        ] == [(victim, agent.rejoin_at)]


class TestStandbySteppedAtFailover:
    def test_first_retransmits_carry_the_failover_instant(self):
        fleet = fleet_of(4)
        deployment = fleet.deploy(chaos=BusChaos(failover_at=12.0))
        assert deployment.is_deployed()
        adopted = sends(deployment.bus, busmod.WORK, "master-2")[:4]
        assert [e.sent_at for e in adopted] == [12.0] * 4
        assert [e.attempt for e in adopted] == [2] * 4
        assert [e.recipient for e in adopted] == fleet.hosts


class TestSimultaneousRetransmits:
    def test_sent_in_wave_order_with_consecutive_ids(self):
        """Cut off from t=1, no progress heartbeat pushes a retransmit
        timer back: all four expire together at 0 + 10."""
        fleet = fleet_of(4)
        deployment = fleet.deploy(
            chaos=BusChaos(partition_at=1.0, partition_for=30.0)
        )
        assert deployment.is_deployed()
        second = [
            e for e in sends(deployment.bus, busmod.WORK) if e.attempt == 2
        ]
        assert [e.sent_at for e in second] == [10.0] * 4
        assert [e.recipient for e in second] == fleet.hosts
        first = second[0].msg_id
        assert [e.msg_id for e in second] == list(range(first, first + 4))


PROBE = Case(12, 7, 0.05, 0.05, 0.5, 30.0, 120.0, 400.0, 2, 5, 60.0, None)


class TestLoopCounters:
    """A floor CI can hold without a clock: every node step is paid for
    by a message the node received or sent (or one of the handful of
    suspect timers).  The sweep ran 32,708 steps where 2,997 messages
    moved."""

    @pytest.mark.parametrize(
        "case, instants", [(PROBE, 2516), (None, 779)],
        ids=["chaos", "clean"],
    )
    def test_steps_are_paid_for_over_the_sweeps_instants(
        self, case, instants
    ):
        fleet = fleet_of(12)
        report = (fleet.run_case(case) if case else fleet.deploy()).report
        assert report.loop_instants == instants
        stats = report.bus_stats
        assert 0 < report.node_steps <= (
            stats["total_sent"] + stats["total_delivered"]
        )
        summary = report.summary()
        assert summary["loop_instants"] == report.loop_instants
        assert summary["node_steps"] == report.node_steps


if __name__ == "__main__":
    for case in CASES:
        bus = fleet_of(case.machines).run_case(case).bus
        params = ", ".join(repr(value) for value in case[:12])
        print(f"    ({params}, {len(bus.log)},\n"
              f'     "{log_digest(bus)}"),')
