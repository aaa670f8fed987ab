"""Provisioning (S5.2).

Two runtime services from the paper:

* *Server discovery*: "Engage provides a set of runtime tools to
  determine properties of servers, such as hostname, IP address,
  operating system" -- :func:`discover_machine` turns an existing
  simulated machine into partial-instance configuration.
* *Cloud provisioning*: "If a machine resource instance in the partial
  installation specification does not include configuration details, and
  Engage is being run in a cloud environment, a new virtual server is
  provisioned to perform the role of that machine" --
  :func:`provision_partial_spec` walks the partial spec and fills every
  machine instance in, provisioning from the cloud provider when needed.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ProvisioningError
from repro.core.instances import PartialInstallSpec, PartialInstance
from repro.core.registry import ResourceTypeRegistry
from repro.core.values import PortEnv
from repro.sim.infrastructure import Infrastructure
from repro.sim.machine import Machine


def discover_machine(machine: Machine) -> dict[str, Any]:
    """Configuration values discovered from a live machine's facts."""
    facts = machine.facts()
    return {
        "hostname": facts["hostname"],
        "os_user_name": facts["os_user_name"],
    }


def machine_os_identity(
    registry: ResourceTypeRegistry, instance: PartialInstance
) -> tuple[str, str]:
    """The (os_name, os_version) a machine type stands for.

    Server types in the resource library carry ``os_name``/``os_version``
    config ports whose defaults identify the platform (e.g.
    ``Mac-OSX 10.6`` -> ``("mac-osx", "10.6")``).
    """
    resource_type = registry.effective(instance.key)
    values: dict[str, str] = {}
    for port_name in ("os_name", "os_version"):
        if port_name in instance.config:
            values[port_name] = str(instance.config[port_name])
            continue
        try:
            config_port = resource_type.config_port(port_name)
        except Exception:
            raise ProvisioningError(
                f"machine type {instance.key} declares no {port_name!r} "
                "config port; cannot select an image"
            ) from None
        values[port_name] = str(config_port.default.evaluate(PortEnv()))
    return values["os_name"], values["os_version"]


def provision_partial_spec(
    registry: ResourceTypeRegistry,
    partial: PartialInstallSpec,
    infrastructure: Infrastructure,
) -> PartialInstallSpec:
    """Fill in machine configuration, provisioning cloud servers on demand.

    Returns a new partial spec in which every machine instance has a
    ``hostname`` naming a live machine on the network.
    """
    provider = infrastructure.default_provider()
    provisioned = PartialInstallSpec()
    for instance in partial:
        resource_type = registry.effective(instance.key)
        if not resource_type.is_machine():
            provisioned.add(instance)
            continue
        config = dict(instance.config)
        hostname = config.get("hostname")
        if hostname and infrastructure.network.has_machine(str(hostname)):
            machine = infrastructure.network.machine(str(hostname))
            discovered = discover_machine(machine)
            for name, value in discovered.items():
                config.setdefault(name, value)
        elif hostname:
            # A named server that is not yet on the network: treat it as a
            # pre-existing on-premises machine and register it.
            os_name, os_version = machine_os_identity(registry, instance)
            infrastructure.add_machine(str(hostname), os_name, os_version)
        else:
            if provider is None:
                raise ProvisioningError(
                    f"machine instance {instance.id!r} has no hostname and "
                    "no cloud provider is configured"
                )
            os_name, os_version = machine_os_identity(registry, instance)
            image = provider.find_image(os_name, os_version)
            machine = provider.provision(image.image_id)
            config.update(discover_machine(machine))
        provisioned.add(
            PartialInstance(
                id=instance.id,
                key=instance.key,
                inside_id=instance.inside_id,
                config=config,
            )
        )
    return provisioned
