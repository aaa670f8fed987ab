"""The Java stack: Java runtimes, Tomcat, OpenMRS, JasperReports.

These are the resource types of the paper's Figure 1 and the S6.1 case
study, each paired with a driver.  OpenMRS demonstrates the S3.4 static
reverse mapping: its static output ``webapp_config`` flows *backwards*
into Tomcat's ``extra_config`` input, so Tomcat can materialise the
servlet context file while installing -- before OpenMRS exists.
"""

from __future__ import annotations

from repro.core.builder import define
from repro.core.keys import ResourceKey
from repro.core.ports import PASSWORD, PATH, STRING, TCP_PORT
from repro.core.resource_type import (
    Dependency,
    DependencyAlternative,
    DependencyKind,
    PortMapping,
    ResourceType,
)
from repro.core.values import Format, Lit, RecordExpr, config_ref, input_ref
from repro.drivers.base import DriverRegistry
from repro.drivers.library import ArchiveDriver, ServiceDriver
from repro.library.base import (
    DATABASE_RECORD,
    HOST_RECORD,
    JAVA_RECORD,
    SERVLET_CONTAINER_RECORD,
)

TOMCAT_VERSIONS = ("5.5", "6.0.18")


def java_types() -> list[ResourceType]:
    """Abstract ``Java`` plus the JDK and JRE runtimes (Figure 1)."""
    java = (
        define("Java", abstract=True, driver="package")
        .inside("Server")
        .output("java", JAVA_RECORD)
        .build()
    )
    jdk = (
        define("JDK", "1.6", extends="Java", driver="package")
        .output(
            "java",
            JAVA_RECORD,
            value=RecordExpr.of(
                home=Lit("/opt/jdk-1.6"),
                version=Lit("1.6"),
                kind=Lit("jdk"),
            ),
        )
        .build()
    )
    jre = (
        define("JRE", "1.6", extends="Java", driver="package")
        .output(
            "java",
            JAVA_RECORD,
            value=RecordExpr.of(
                home=Lit("/opt/jre-1.6"),
                version=Lit("1.6"),
                kind=Lit("jre"),
            ),
        )
        .build()
    )
    return [java, jdk, jre]


def tomcat_types() -> list[ResourceType]:
    """Tomcat 5.5 and 6.0.18 (two versions so the OpenMRS version-range
    dependency "at least 5.5 but before 6.0.29" is a real disjunction)."""
    types = []
    for version in TOMCAT_VERSIONS:
        types.append(
            define("Tomcat", version, driver="tomcat")
            .inside("Server", host="host")
            .input("host", HOST_RECORD)
            .env("Java", java="java")
            .input("java", JAVA_RECORD)
            .input("extra_config", STRING)  # reverse-filled by servlets
            .config("manager_port", TCP_PORT, 8080)
            .config("manager_user", STRING, "admin")
            .config("manager_password", PASSWORD, "tomcat-admin")
            .output(
                "tomcat",
                SERVLET_CONTAINER_RECORD,
                value=RecordExpr.of(
                    hostname=input_ref("host", "hostname"),
                    port=config_ref("manager_port"),
                    home=Lit(f"/opt/tomcat-{version}"),
                    manager_user=config_ref("manager_user"),
                    manager_password=config_ref("manager_password"),
                ),
            )
            .build()
        )
    return types


def _tomcat_range_inside(input_name: str = "tomcat") -> Dependency:
    """An inside dependency on any library Tomcat version, with the
    servlet's static ``webapp_config`` flowing back into Tomcat."""
    pmap = PortMapping.of(tomcat=input_name)
    reverse = PortMapping.of(webapp_config="extra_config")
    return Dependency(
        DependencyKind.INSIDE,
        tuple(
            DependencyAlternative(
                ResourceKey.parse(f"Tomcat {version}"), pmap, reverse
            )
            for version in TOMCAT_VERSIONS
        ),
    )


def openmrs_types() -> list[ResourceType]:
    """OpenMRS 1.8 (S2): servlet inside Tomcat, Java on the same machine,
    MySQL as a peer."""
    openmrs = (
        define("OpenMRS", "1.8", driver="openmrs")
        .inside_dep(_tomcat_range_inside())
        .input("tomcat", SERVLET_CONTAINER_RECORD)
        .env("Java", java="java")
        .input("java", JAVA_RECORD)
        .peer("MySQL 5.1", database="database")
        .input("database", DATABASE_RECORD)
        .config("context_path", STRING, "openmrs", static=True)
        .output(
            "webapp_config",
            STRING,
            value=Lit("conf/Catalina/localhost/openmrs.xml"),
            static=True,
        )
        .output(
            "url",
            STRING,
            value=Format.of(
                "http://{host}:{port}/openmrs",
                host=input_ref("tomcat", "hostname"),
                port=input_ref("tomcat", "port"),
            ),
        )
        .build()
    )
    return [openmrs]


def jasper_types() -> list[ResourceType]:
    """JasperReports Server 4.2 and the MySQL JDBC connector (S6.1)."""
    jdbc = (
        define("MySQL-JDBC-Connector", "5.1.17", driver="archive")
        .inside("Server", host="host")
        .input("host", HOST_RECORD)
        .output("jar_path", PATH, value=Lit(
            "/opt/mysql-jdbc-connector-5.1.17/mysql-connector-java.jar"
        ))
        .build()
    )
    jasper = (
        define("JasperReports-Server", "4.2", driver="jasper")
        .inside_dep(_tomcat_range_inside())
        .input("tomcat", SERVLET_CONTAINER_RECORD)
        .env("Java", java="java")
        .input("java", JAVA_RECORD)
        .env("MySQL-JDBC-Connector 5.1.17", jar_path="jdbc_jar")
        .input("jdbc_jar", PATH)
        .peer("MySQL 5.1", database="database")
        .input("database", DATABASE_RECORD)
        .output(
            "webapp_config",
            STRING,
            value=Lit("conf/Catalina/localhost/jasperserver.xml"),
            static=True,
        )
        .output(
            "url",
            STRING,
            value=Format.of(
                "http://{host}:{port}/jasperserver",
                host=input_ref("tomcat", "hostname"),
                port=input_ref("tomcat", "port"),
            ),
        )
        .build()
    )
    return [jdbc, jasper]


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


class TomcatDriver(ServiceDriver):
    """Tomcat: install the distribution, write server.xml (including any
    reverse-pushed servlet context path), run the daemon on the manager
    port."""

    def listen_ports(self):
        return [self.context.config("manager_port")]

    def service_name(self) -> str:
        return f"tomcat-{self.context.instance.id}"

    def write_config_files(self) -> None:
        home = self.install_path()
        port = self.context.config("manager_port")
        extra = self.context.input("extra_config", "")
        lines = [
            f'<Server port="{port}">',
            f'  <User name="{self.context.config("manager_user")}"/>',
        ]
        if extra:
            lines.append(f'  <Context descriptor="{extra}"/>')
        lines.append("</Server>")
        fs = self.context.machine.fs
        fs.write_file(f"{home}/conf/server.xml", "\n".join(lines) + "\n")
        fs.mkdir(f"{home}/webapps")


class WebappDriver(ServiceDriver):
    """A servlet deployed inside Tomcat: unpack the war into the
    container's webapps directory; startup requires the container and the
    database to be accepting connections."""

    webapp_name = "webapp"

    def listen_ports(self):
        return []  # served through the container's port

    def service_name(self) -> str:
        return f"{self.webapp_name}-{self.context.instance.id}"

    def write_config_files(self) -> None:
        tomcat = self.context.input("tomcat")
        database = self.context.input("database")
        fs = self.context.machine.fs
        war_dir = f"{tomcat['home']}/webapps/{self.webapp_name}"
        fs.mkdir(war_dir)
        fs.write_file(
            f"{war_dir}/WEB-INF/connection.properties",
            f"db.url=jdbc:{database['engine']}://{database['host']}:"
            f"{database['port']}/{database['database']}\n"
            f"db.user={database['user']}\n",
        )

    def upstream_endpoints(self):
        tomcat = self.context.input("tomcat")
        database = self.context.input("database")
        endpoints = [(tomcat["hostname"], tomcat["port"])]
        if database["engine"] != "sqlite":
            endpoints.append((database["host"], database["port"]))
        return endpoints


class OpenMrsDriver(WebappDriver):
    webapp_name = "openmrs"


class JasperDriver(WebappDriver):
    webapp_name = "jasperserver"

    package_name = "jasperreports-server"

    def write_config_files(self) -> None:
        super().write_config_files()
        jar = self.context.input("jdbc_jar")
        tomcat = self.context.input("tomcat")
        self.context.machine.fs.write_file(
            f"{tomcat['home']}/lib/mysql-connector.link", f"{jar}\n"
        )


class JdbcConnectorDriver(ArchiveDriver):
    """The generic download-and-extract driver suffices (S6.1: "No
    additional Python code was required")."""


def register_java_drivers(drivers: DriverRegistry) -> None:
    drivers.register("tomcat", TomcatDriver)
    drivers.register("openmrs", OpenMrsDriver)
    drivers.register("jasper", JasperDriver)
