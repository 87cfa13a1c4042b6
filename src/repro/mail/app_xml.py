"""The mail application's one definition: a PSF document (§2.1 element #1).

:data:`MAIL_APP_XML` declares every interface (Table 3a's ``MessageI``,
``AddressI`` and ``NotesI``, plus ``MailI`` and ``SecMailI``), every
component with its ports, dRBAC role, node constraint and CPU demand, the
views, and the Table 4 policy.  :func:`register_components` loads it into
a registrar, binding the factories and classes XML cannot carry; this is
how :func:`repro.mail.build_scenario` registers the application.

The views of ``MailClient``, one per access tier:

* ``ViewMailClient_Member`` — company members: full functionality, all
  interfaces local.
* ``ViewMailClient_Partner`` — partners, Table 3(b) verbatim: messages
  local, notes via RMI, address book via Switchboard, and ``addMeeting``
  "reduced to only requesting the right to set up a meeting".
* ``ViewMailClient_Anonymous`` — everyone else: "only the right to browse
  the email directory"; the phone directory is refused per-method,
  demonstrating access control "down to the level of individual methods".

``ViewMailServer`` is the cache: ``MailI`` runs locally against the
replicated ``mailboxes``/``directory``/``delivered`` state, which the
coherence machinery keeps synchronized with the origin ("PSF adapts to low
available bandwidth by placing a *view mail server* close to the client").
"""

from __future__ import annotations

from ..psf.appspec import LoadReport, load_application
from ..psf.registrar import Registrar
from .client import MailClient
from .crypto_components import Decryptor, Encryptor
from .server import MailServer

# Method bodies are Python (the reproduction's method-body language); the
# partner view's structure and Java-style signature are the paper's.
MAIL_APP_XML = """
<Application name="mail">
  <Interfaces>
    <Interface name="MailI">
      <Method>fetchMail(user)</Method>
      <Method>sendMail(mes)</Method>
      <Method>listAccounts()</Method>
    </Interface>
    <Interface name="SecMailI">
      <Method>fetchMailEnc(user)</Method>
      <Method>sendMailEnc(blob)</Method>
      <Method>listAccountsEnc()</Method>
    </Interface>
    <Interface name="MessageI">
      <Method>sendMessage(mes)</Method>
      <Method>receiveMessages()</Method>
    </Interface>
    <Interface name="AddressI">
      <Method>getPhone(name)</Method>
      <Method>getEmail(name)</Method>
    </Interface>
    <Interface name="NotesI">
      <Method>addNote(note)</Method>
      <Method>addMeeting(name)</Method>
    </Interface>
  </Interfaces>
  <Components>
    <!-- A stateful singleton: the planner links to it, never respawns it. -->
    <Component name="MailServer" role="Mail.MailServer" cpu="50" deployable="false">
      <Implements interface="MailI"/>
      <NodeConstraint>Mail.Node with Secure={true} Trust=(0,5)</NodeConstraint>
    </Component>
    <Component name="Encryptor" role="Mail.Encryptor" cpu="30">
      <Property name="bandwidth_transparent" value="true"/>
      <Implements interface="SecMailI">
        <Property name="encrypted" value="true"/>
      </Implements>
      <Requires interface="MailI">
        <Property name="privacy" value="true"/>
        <Property name="channel" value="rmi"/>
      </Requires>
      <NodeConstraint>Mail.Node</NodeConstraint>
    </Component>
    <Component name="Decryptor" role="Mail.Decryptor" cpu="30">
      <Property name="bandwidth_transparent" value="true"/>
      <Implements interface="MailI"/>
      <Requires interface="SecMailI">
        <Property name="privacy" value="true"/>
        <Property name="channel" value="rmi"/>
      </Requires>
      <NodeConstraint>Mail.Node</NodeConstraint>
    </Component>
    <Component name="MailClient" role="Mail.MailClient" cpu="10">
      <Implements interface="MessageI"/>
      <Implements interface="AddressI"/>
      <Implements interface="NotesI"/>
      <NodeConstraint>Mail.Node</NodeConstraint>
    </Component>
  </Components>
  <Views>
    <View name="ViewMailServer" component="MailServer" cpu="20" role="Mail.ViewMailServer">
      <Represents name="MailServer"/>
      <Restricts>
        <Interface name="MailI" type="local"/>
      </Restricts>
      <Replicates_Fields>
        <Field name="mailboxes"/>
        <Field name="directory"/>
        <Field name="delivered"/>
      </Replicates_Fields>
    </View>
    <View name="ViewMailClient_Member" component="MailClient" cpu="5">
      <Represents name="MailClient"/>
      <Restricts>
        <Interface name="MessageI" type="local"/>
        <Interface name="AddressI" type="local"/>
        <Interface name="NotesI" type="local"/>
      </Restricts>
    </View>
    <View name="ViewMailClient_Partner" component="MailClient" cpu="5">
      <Represents name="MailClient"/>
      <Restricts>
        <Interface name="MessageI" type="local"/>
        <Interface name="NotesI" type="rmi" binding="NotesI"/>
        <Interface name="AddressI" type="switchboard" binding="AddressI"/>
      </Restricts>
      <Adds_Fields>
        <Field name="accountCopy" type="Account"/>
      </Adds_Fields>
      <Customizes_Methods>
        <MSign>boolean addMeeting(String name)</MSign>
        <MBody>return "meeting-requested:" + name</MBody>
      </Customizes_Methods>
    </View>
    <View name="ViewMailClient_Anonymous" component="MailClient" cpu="5">
      <Represents name="MailClient"/>
      <Restricts>
        <Interface name="AddressI" type="switchboard" binding="AddressI"/>
      </Restricts>
      <Customizes_Methods>
        <MSign>getPhone(name)</MSign>
        <MBody>raise PermissionError('anonymous clients may only browse the email directory')</MBody>
      </Customizes_Methods>
    </View>
  </Views>
  <Policies>
    <Policy component="MailClient">
      <Allow role="Comp.NY.Member" view="ViewMailClient_Member"/>
      <Allow role="Comp.NY.Partner" view="ViewMailClient_Partner"/>
      <Allow role="others" view="ViewMailClient_Anonymous"/>
    </Policy>
  </Policies>
</Application>
"""


def register_components(registrar: Registrar) -> LoadReport:
    """Register the mail application :data:`MAIL_APP_XML` declares."""
    return load_application(
        registrar,
        MAIL_APP_XML,
        factories={
            "MailServer": lambda ctx: MailServer(),
            "Encryptor": lambda ctx: Encryptor(ctx.require("MailI")),
            "Decryptor": lambda ctx: Decryptor(ctx.require("SecMailI")),
            "MailClient": lambda ctx: MailClient(),
        },
        classes={
            "MailServer": MailServer,
            "Encryptor": Encryptor,
            "Decryptor": Decryptor,
            "MailClient": MailClient,
        },
    )


# The two specs the wall-clock benchmark (bench/) imports by name.
_DOCUMENT = Registrar()
register_components(_DOCUMENT)
VIEW_MAIL_CLIENT_MEMBER = _DOCUMENT.view_spec("ViewMailClient_Member")
VIEW_MAIL_SERVER_SPEC = _DOCUMENT.view_spec("ViewMailServer")
