"""The bus control plane's *schedule* is pinned, not just its replay.

``TestReplay`` and ``test_replay_is_byte_identical`` compare a run with
a second run of the same code, so a change that shifts every heartbeat
equally passes them.  Here every case's delivery log is compared with a
digest recorded **before** the control loop became an agenda (commit
69d6b0f, the sweep that stepped every node at every instant): the same
instants, the same step order, the same ``msg_id`` / tie-break sequence,
byte for byte.  The ``jobs=2`` rows were re-recorded once since, when
the scheduler's ready queue went from critical-path priority to pass
order; the default-engine rows (``jobs`` ``None``) never moved.

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
#: hosts; ``jobs`` is the coordinator's worker bound (``None``: its
#: default, one worker); ``records`` / ``sha256`` are ``len(bus.log)``
#: and the digest of ``delivery_log()``.
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
    (4, 3, 0.05, 0.0, 0.5, 30.0, 120.0, None, None, 2, 200.0, 2, 631,
     "6c1e425ac0dc41c63246bd42811759edb4dc2e406ad9e29e0b6b0257815eee06"),
    (4, 4, 0.2, 0.05, 3.0, 30.0, 120.0, 400.0, 3, 7, 60.0, None, 1162,
     "a25e19307e44f1ffe4764448c03289bf22936057e73fe1f1e23232efba4ee3a9"),
    (4, 5, 0.2, 0.0, 0.5, 10.0, 20.0, None, 0, 6, 25.0, 2, 642,
     "9d193a01311af083f751b8ce74f226cfbc3bd8bb3195eb07226d949ca2c70f67"),
    (4, 6, 0.0, 0.05, 3.0, 10.0, 20.0, None, 0, 9, 60.0, 2, 625,
     "daa8d967b77296cb02e406f1086e773b8ec61b4366f2a7a07dba6b546cd555d2"),
    (4, 7, 0.2, 0.0, 0.0, None, 120.0, None, None, 5, 200.0, 2, 608,
     "505056140b72f414c316294b7835b2bd31cab4e8026440dbd0b5670f6c0bdbd5"),
    (4, 8, 0.0, 0.2, 0.0, 10.0, 20.0, None, 1, 7, 25.0, None, 1107,
     "46d070e47cf06dc7c4239daa278fca1122ce5706406488fcb174850663bcacdd"),
    (4, 9, 0.2, 0.05, 0.0, 10.0, 120.0, 400.0, None, 4, 60.0, None, 1193,
     "d589fcf7653f315d9a41ecf747f79405df863da93f70c082436bd53d5d961605"),
    (4, 10, 0.0, 0.2, 3.0, None, 20.0, 50.0, None, 9, 200.0, 2, 953,
     "d247c1cb6f5e71f72a196e2db5fcd26ccd2bcf2dad323b183e9b9414c1d6d393"),
    (4, 11, 0.05, 0.0, 0.0, 30.0, 20.0, None, None, 3, 60.0, None, 946,
     "877024052ab1e90669a8d44e78c0cda4f042296da770f4d48c689f646d462edb"),
    (4, 12, 0.2, 0.0, 0.0, None, 120.0, None, 0, 1, 60.0, None, 969,
     "2e7bd769e1365f3f16910040784d9c6e976c47e3dc96f586a60df2f1ad892847"),
    (4, 13, 0.05, 0.2, 0.5, None, 120.0, None, None, 9, 200.0, None, 1151,
     "cfea65d9488969cfbd185e90df344837a6ee61acdb13ccca12da3f7e96602054"),
    (4, 14, 0.05, 0.05, 3.0, 10.0, 120.0, 50.0, 2, 1, 60.0, 2, 753,
     "7f7ee3651297bf0a928479dcb780609c9314064d1f665e69420ef25375c66c98"),
    (4, 15, 0.0, 0.05, 3.0, 10.0, 120.0, None, 3, 4, 200.0, None, 974,
     "f150c33c5e30c37fd1c4617558517bcb1c3ec8ecebcda2b34f1596df27700626"),
    (4, 16, 0.05, 0.2, 0.5, 10.0, 120.0, 400.0, 1, 7, 60.0, 2, 785,
     "6372c407f84d0d6a5a722c7f1ba52fec7b94f5c4f70a5096a1be9e15a4bc44c7"),
    (4, 17, 0.2, 0.05, 0.0, None, 20.0, 50.0, 0, 6, 25.0, 2, 802,
     "68b9e6050fb26fbca56da19da305bd3297e829e941970195cad7f499b6e0c7e7"),
    (4, 18, 0.05, 0.05, 0.0, 30.0, 120.0, 50.0, None, 9, 200.0, 2, 838,
     "dbe7b24a8597fcb8274933d319034af2ef6edc1ce9d47151f7803638d3614626"),
    (4, 19, 0.2, 0.0, 3.0, None, 120.0, 400.0, None, 9, 200.0, None, 1087,
     "0a42670a79bd4604580733508f768acd59fb2d4f4a73768c0bd5806caf750fd2"),
    (4, 20, 0.0, 0.05, 0.5, None, 20.0, None, 3, 1, 25.0, 2, 613,
     "ddd763c0a01ad8119ba6ba8b4354269afc8f43e70844548934372a668704b0a7"),
    (4, 21, 0.2, 0.0, 0.5, 10.0, 120.0, 400.0, None, 1, 200.0, None, 1112,
     "7a93065d44c1cfc445cbf3de6b8c334a273856e8162f279b65ee206af3324dbd"),
    (4, 22, 0.2, 0.0, 0.5, None, 20.0, None, None, 1, 60.0, None, 1010,
     "8db913dd38b50d486ac3caa5d50ee2cce5e32feb70fc3ce598065f53efbf1458"),
    (4, 23, 0.05, 0.0, 3.0, None, 20.0, None, None, 2, 25.0, None, 955,
     "afb476a108cb3d142258a4e775d6f635e5f3c2e4ace1c5af5247ccd8093ed9d1"),
    (4, 24, 0.0, 0.0, 0.0, 30.0, 20.0, 400.0, 3, 5, 200.0, 2, 654,
     "6a9a1262fcf84b2e57920c6210aece93ec08f4e28eeb32aecc2b35e73c333a58"),
    (12, 0, 0.05, 0.2, 0.5, None, 120.0, 50.0, 6, 9, 200.0, 2, 2296,
     "847fc4ae1065bb93b3f7b2276c86be7dc4cb949724e6f908fd82c60be2e325d9"),
    (12, 1, 0.0, 0.2, 0.5, 10.0, 20.0, None, 6, 3, 200.0, 2, 1909,
     "68b2538bb2f091f5e174c41e849cd2555c42511bb3f50df012fd28ddce474f08"),
    (12, 2, 0.0, 0.05, 0.5, None, 120.0, 400.0, 5, 1, 60.0, 2, 1759,
     "86c899cca2510a8ea282aa1b39334e4b00144308a0a6e8e3da989a66cb3b1c44"),
    (12, 3, 0.2, 0.05, 0.5, 30.0, 120.0, 400.0, None, 3, 60.0, 2, 1924,
     "17b687cac72c1597412a14d4e08e1802305dac799c287946a2a1e1719b962161"),
    (12, 4, 0.05, 0.2, 0.5, 30.0, 20.0, None, 11, 4, 60.0, None, 1852,
     "ea82c6e666835afbb7a0d5481e1b17531702f558873c51c4ec3ed6c08aa3e0f7"),
    (12, 5, 0.05, 0.0, 0.0, 30.0, 20.0, 50.0, 8, 9, 25.0, None, 2243,
     "39aeceff323900bc130c8f4a71efd413306cdcdf9af2a17f9d573d6583fcc65b"),
    (12, 6, 0.05, 0.2, 0.0, 10.0, 120.0, 50.0, 8, 9, 25.0, 2, 1922,
     "adad111be0466cc7986e76810f4090c01b6681535d71aa99c165812859fae9d4"),
    (12, 7, 0.0, 0.0, 3.0, 10.0, 20.0, 400.0, 5, 3, 200.0, 2, 1282,
     "a8035b45b9cfe3c3b49c74ee6c5bdf7771b638f1d1a17b8b42b0d80eef1e7f7d"),
    (12, 8, 0.2, 0.2, 3.0, None, 120.0, 400.0, None, 8, 60.0, 2, 2017,
     "4cf02b2684ddb2e2bd06ff0c3f55dab46695619d13022c744fd1430e8a3facd1"),
    (12, 9, 0.0, 0.2, 3.0, 30.0, 120.0, None, None, 4, 60.0, 2, 1676,
     "5ebe08cfe06bf3b99b18177e8fb6ec3ee163623aba65a81e2d3678172fcfddeb"),
    (12, 10, 0.0, 0.0, 0.5, None, 120.0, 400.0, 8, 1, 60.0, 2, 1651,
     "68c5ef867d921e34c5dc9b96488801ab6c94c261cb21a27ecd04533ef7d3f79b"),
    (12, 11, 0.05, 0.05, 0.5, 10.0, 120.0, 400.0, 8, 6, 25.0, 2, 1899,
     "fb7fdcf3e6a19aed6aaf714df82950c96ff03819d0922ef1503cde21179bf1f9"),
    (12, 12, 0.05, 0.05, 0.5, 10.0, 20.0, None, 5, 3, 60.0, 2, 1370,
     "7db4215e4d47e2463d561ed76b7d6634bb61d154ca19e651ffe38af6e8f2d259"),
    (12, 13, 0.0, 0.0, 3.0, None, 20.0, 400.0, None, 2, 200.0, 2, 1278,
     "e50ceefed3bbe162744b38e75d56a4cc16b56d01aa90eb1a2676cb4e7c51091b"),
    (12, 14, 0.05, 0.05, 3.0, 10.0, 120.0, None, 7, 3, 200.0, None, 1824,
     "e3b6c13bf306d5d42d315862b35cf95df800311802f2ec6d24a38d95b4f35ef5"),
    (12, 15, 0.0, 0.0, 0.5, 10.0, 20.0, None, 9, 9, 60.0, None, 1542,
     "3e822c776142a9b7be3ec11780dd844685684e49c7896615c5037f7d8afac86b"),
    (12, 16, 0.0, 0.2, 3.0, None, 20.0, None, 6, 3, 25.0, 2, 1934,
     "c9c1fc84330e9a54b6541dfb22c79a4be5c3202552b32a2ace8ba3d4de5fcc49"),
    (12, 17, 0.0, 0.0, 0.0, 10.0, 120.0, 400.0, 4, 7, 60.0, None, 1833,
     "6cb5634b52bed86fa602b3a1c052fd39619e022b1b02e7bc5b16c3888fca87da"),
    (12, 18, 0.2, 0.0, 0.5, 30.0, 120.0, 50.0, 3, 3, 25.0, None, 2698,
     "ae958feec8ed87a4eeaa75916dd1141b33d79c88fc3b47c2e612af0d48330a44"),
    (12, 19, 0.2, 0.2, 0.0, 10.0, 20.0, 400.0, 4, 8, 200.0, None, 1969,
     "6174feffaff9c9fcb938b6ff85734841994b76eb0550b30c89b98ddea719f5f7"),
    (12, 20, 0.05, 0.05, 0.5, 30.0, 120.0, 50.0, 6, 6, 25.0, 2, 1973,
     "6137440d0d585bc375c4d04aa9a69e65cbc75d6b96a38f383e789bfd3fe9eee5"),
    (12, 21, 0.05, 0.2, 3.0, None, 120.0, 50.0, 2, 9, 25.0, None, 3300,
     "af03e08859106224ead72f33adbb9da467d58fc3f9813cbc2df023175914310a"),
    (12, 22, 0.2, 0.0, 3.0, 10.0, 120.0, 400.0, 4, 1, 60.0, 2, 1851,
     "3d442747e79b4f3a7f043a34afd6f59ff5108b0c090d726af7f29d4ac09b65e7"),
    (12, 23, 0.0, 0.2, 3.0, None, 20.0, 400.0, 0, 4, 25.0, 2, 1976,
     "041e97aac8254b0b93b8320dd737fcff65fb0d76633264951431c2e7aaa9708e"),
    (12, 24, 0.0, 0.05, 0.0, 10.0, 20.0, 50.0, None, 4, 25.0, None, 2404,
     "b6c888cf590582cbaa6913e9b44bf6bc90da97b6ff90666a160ec73472e937db"),
    (32, 0, 0.0, 0.0, 3.0, 10.0, 20.0, 50.0, None, 1, 200.0, None, 9900,
     "490b9303cd88ad7a02610e34427be15f6e6b5822956584b52f02bc2068518198"),
    (32, 1, 0.05, 0.0, 3.0, 10.0, 120.0, 400.0, None, 1, 200.0, 2, 5177,
     "c8d34ecf13690b9d63a996acc8cfb61c4bcd73e25d37121e9fbf6c9b88416208"),
    (32, 2, 0.05, 0.2, 0.5, 10.0, 20.0, 400.0, None, 7, 60.0, 2, 5860,
     "6f1c9f57ee7999c2d55c9438d34a020176a3e8b96122476647c873264f11984c"),
    (32, 3, 0.05, 0.05, 3.0, None, 20.0, 50.0, None, 2, 60.0, 2, 6103,
     "ce5ce23bec61d7a9027bc7842549c2aca657a05a77b79d8e17cb94e23eafee76"),
    (32, 4, 0.2, 0.2, 3.0, None, 20.0, 400.0, 22, 2, 200.0, 2, 5711,
     "11da0a320d559dee6c13ff78f5cd8bfa722d28f37c1e84534f5d2b35b6f8e8be"),
    (32, 5, 0.0, 0.2, 0.0, None, 20.0, 50.0, 29, 3, 60.0, 2, 7386,
     "2c7cc391841b1637b0b1d6565f38a527335485b9117dccbedcb5ab774ea9b1a8"),
    (32, 6, 0.2, 0.0, 0.0, 30.0, 120.0, 50.0, 15, 1, 25.0, None, 9711,
     "9ebb7ac5b5d309411708833164c3f3d6a5ff45ba02f779bb31f64596101fe3a8"),
    (32, 7, 0.2, 0.05, 0.0, None, 20.0, None, 24, 7, 60.0, None, 8193,
     "958ea3db52aaa9e251fdbd9bf83388a69b6ea8f177d69693ac8062f9ba8c6b88"),
    (32, 8, 0.2, 0.05, 0.5, 10.0, 120.0, None, 23, 2, 200.0, 2, 5286,
     "ea050224ee2fe074910326a5e02f8aec327765669cdc1389a81fb56eafc611c1"),
    (32, 9, 0.05, 0.05, 3.0, None, 20.0, 50.0, 1, 2, 200.0, None, 10246,
     "9da97b7e014677938fdd15704d105ccca8b4600761351e59bff2c7d9a962a4fd"),
    (32, 10, 0.05, 0.0, 0.5, 10.0, 120.0, 50.0, None, 7, 25.0, None, 9693,
     "d77a0c06787de929d4ab2feac03acac79c08945942971675cd4691dbc7225f19"),
    (32, 11, 0.2, 0.0, 3.0, None, 20.0, 50.0, None, 6, 60.0, 2, 5802,
     "ab0380a4da60dcc58cdd1769c1d2774eb67a2744c4a2f2872eef3aeabb95e499"),
    (32, 12, 0.2, 0.05, 3.0, None, 20.0, 50.0, 13, 2, 25.0, None, 10063,
     "dbfa194660f7f529a03f6cd706452fda01f0ed514a3c4822099d693e3610954e"),
    (32, 13, 0.0, 0.2, 0.5, 10.0, 120.0, 50.0, 17, 8, 200.0, 2, 6830,
     "3bb0848526c80f2d3c1471b2f7bbfc30cfa08c891ef548395214fcfdd6d11320"),
    (32, 14, 0.05, 0.0, 0.0, 10.0, 20.0, None, 1, 1, 60.0, 2, 4848,
     "bae623808303b408271fd2226b110e7cdce65098dd3fa5b6f3125283da95f7d4"),
    (32, 15, 0.2, 0.0, 3.0, 30.0, 20.0, None, None, 7, 200.0, 2, 5014,
     "3c9c531b6554c2149a53e229d76aa819aa7083691702475f84bf7d8aef092998"),
    (32, 16, 0.0, 0.2, 0.5, 30.0, 120.0, 400.0, 14, 2, 25.0, 2, 5990,
     "c7bddc61e3653c4bf7c358ba92f8745fb850c29af1de1a11b331aba236716e5e"),
    (32, 17, 0.05, 0.05, 0.0, None, 120.0, 400.0, 2, 5, 60.0, None, 8336,
     "61ba15e3ea0dd932e64c6ce7e9f51a419d81b1a0baf5b055711fe3ee6252fa0c"),
    (32, 18, 0.0, 0.2, 0.0, 10.0, 20.0, None, 3, 8, 60.0, None, 9278,
     "b7637d168113f27ec8d504afe10648df0d282b84e1a422e4a3699614edf515d8"),
    (32, 19, 0.0, 0.2, 0.0, 30.0, 20.0, 50.0, 11, 4, 25.0, None, 12419,
     "881b3dad72a705c71fe16d6a91aaa1789671a2cd137ef0324170e64bb40dd75c"),
    (32, 20, 0.05, 0.05, 3.0, 10.0, 120.0, 400.0, 0, 2, 60.0, None, 8508,
     "54e62d9d983090fbff2babbd76e66c45700feb6661ff2cf4a29ff96e3da77290"),
    (32, 21, 0.0, 0.05, 0.0, 10.0, 20.0, 400.0, None, 5, 60.0, 2, 5172,
     "e7bcad7ce38e39f3f611e38074dbfce7b13c7c4d3ff3ee709404c0ba22c54722"),
    (32, 22, 0.2, 0.0, 0.0, 30.0, 120.0, 400.0, 26, 9, 25.0, None, 8480,
     "8d655beda670e148ed4abb5aa89ab9ae912272b1af8976dd0806705321948528"),
    (32, 23, 0.05, 0.05, 3.0, None, 20.0, 50.0, 12, 9, 60.0, 2, 6099,
     "220e2972ed16e2bc2c76c8232d413a3476cd90ffd9c5e60881e7aa219506d439"),
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

    def deploy(self, *, faults=None, chaos=None, jobs=1):
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
            jobs=case.jobs or 1,
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
